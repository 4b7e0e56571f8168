package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"exaresil/internal/experiments"
)

// specFields renders a spec as JSON with its fields in an arbitrary order,
// optionally spelling out zero-valued fields. encoding/json always emits a
// fixed order, so the permutations are built by hand.
func specJSON(s Spec, order []int, includeZeros bool) string {
	fields := []struct {
		name string
		val  string
		zero bool
	}{
		{"exhibit", fmt.Sprintf("%q", s.Exhibit), s.Exhibit == ""},
		{"trials", fmt.Sprintf("%d", s.Trials), s.Trials == 0},
		{"patterns", fmt.Sprintf("%d", s.Patterns), s.Patterns == 0},
		{"arrivals", fmt.Sprintf("%d", s.Arrivals), s.Arrivals == 0},
		{"seed", fmt.Sprintf("%d", s.Seed), s.Seed == 0},
	}
	var parts []string
	for _, i := range order {
		f := fields[i]
		if f.zero && !includeZeros {
			continue
		}
		parts = append(parts, fmt.Sprintf("%q: %s", f.name, f.val))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// TestSpecKeySemanticEquality: every JSON rendering of the same spec —
// shuffled field order, zero values omitted or spelled out — parses to the
// same cache key.
func TestSpecKeySemanticEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	specs := []Spec{
		{Exhibit: "fig1"},
		{Exhibit: "fig4", Patterns: 6},
		{Exhibit: "table2", Trials: 50, Seed: 7},
		{Exhibit: "ext-tau", Trials: 10, Patterns: 3, Arrivals: 20, Seed: 99},
	}
	// A default spelled out, or a field the exhibit never reads, is the
	// same request as the field omitted.
	same := map[Spec]Spec{
		{Exhibit: "fig1", Trials: 200}:                               {Exhibit: "fig1"},
		{Exhibit: "fig1", Patterns: 6}:                               {Exhibit: "fig1"},
		{Exhibit: "fig4", Patterns: 50, Arrivals: 100}:               {Exhibit: "fig4"},
		{Exhibit: "fig4", Trials: 9, Patterns: 6}:                    {Exhibit: "fig4", Patterns: 6},
		{Exhibit: "ext-selectors", Arrivals: 60}:                     {Exhibit: "ext-selectors"},
		{Exhibit: "table2", Trials: 50, Seed: 7}:                     {Exhibit: "table2", Seed: 7},
		{Exhibit: "ext-whatif", Trials: 3, Patterns: 4, Arrivals: 5}: {Exhibit: "ext-whatif"},
		// Trials that buy the same whole antithetic pairs (ext-menu2) or
		// probes (policy), at least one, are the same request.
		{Exhibit: "ext-menu2", Trials: 201}: {Exhibit: "ext-menu2"},
		{Exhibit: "ext-menu2", Trials: 1}:   {Exhibit: "ext-menu2", Trials: 2},
		{Exhibit: "ext-menu2", Trials: 3}:   {Exhibit: "ext-menu2", Trials: 2},
		{Exhibit: "policy", Trials: 201}:    {Exhibit: "policy"},
		{Exhibit: "policy", Trials: 203}:    {Exhibit: "policy"},
		{Exhibit: "policy", Trials: 1}:      {Exhibit: "policy", Trials: 4},
		{Exhibit: "policy", Trials: 7}:      {Exhibit: "policy", Trials: 4},
	}
	for in, want := range same {
		if in.Key() != want.Key() {
			t.Errorf("spec %+v keys as %s, want the key of %+v", in, in.Canonical(), want)
		}
		specs = append(specs, in)
	}
	// Specs that spell out only fields their exhibit reads, at non-default
	// values, keep their canonical form byte for byte: the served-zipf
	// and loadsweep vocabularies, and the scenarios' golden fig4 spec.
	for _, s := range []Spec{
		{Exhibit: "fig1", Trials: 2, Seed: 1},
		{Exhibit: "ext-mtbf", Trials: 2, Seed: 5},
		{Exhibit: "fig4", Patterns: 1, Arrivals: 5, Seed: 3},
		{Exhibit: "fig4", Patterns: 6},
	} {
		if want := fmt.Sprintf("exhibit=%s&trials=%d&patterns=%d&arrivals=%d&seed=%d",
			s.Exhibit, s.Trials, s.Patterns, s.Arrivals, s.Seed); s.Canonical() != want {
			t.Errorf("canonical form of %+v is %s, want %s", s, s.Canonical(), want)
		}
	}
	for _, want := range specs {
		base := want.Key()
		for trial := 0; trial < 25; trial++ {
			order := rng.Perm(5)
			includeZeros := trial%2 == 0
			raw := specJSON(want, order, includeZeros)
			got, err := ParseSpec(strings.NewReader(raw))
			if err != nil {
				t.Fatalf("ParseSpec(%s): %v", raw, err)
			}
			if got.Key() != base {
				t.Errorf("spec %+v rendered as %s: key %s, want %s", want, raw, got.Key(), base)
			}
		}
	}
}

// TestSpecKeySensitivity: changing any single parameter the exhibit
// reads changes the key (fig4 reads patterns and arrivals, fig1 trials).
func TestSpecKeySensitivity(t *testing.T) {
	base := Spec{Exhibit: "fig4", Patterns: 6, Arrivals: 40, Seed: 1}
	mutations := map[string]Spec{
		"exhibit":  {Exhibit: "fig5", Patterns: 6, Arrivals: 40, Seed: 1},
		"trials":   {Exhibit: "fig1", Trials: 11, Seed: 1},
		"patterns": {Exhibit: "fig4", Patterns: 7, Arrivals: 40, Seed: 1},
		"arrivals": {Exhibit: "fig4", Patterns: 6, Arrivals: 41, Seed: 1},
		"seed":     {Exhibit: "fig4", Patterns: 6, Arrivals: 40, Seed: 2},
		"zeroed":   {Exhibit: "fig4"},
	}
	seen := map[string]string{base.Canonical(): "base", Spec{Exhibit: "fig1", Trials: 10, Seed: 1}.Canonical(): "fig1 base"}
	for name, m := range mutations {
		if m.Key() == base.Key() {
			t.Errorf("mutating %s did not change the cache key", name)
		}
		if prior, dup := seen[m.Canonical()]; dup {
			t.Errorf("mutations %s and %s collide on canonical form %s", name, prior, m.Canonical())
		}
		seen[m.Canonical()] = name
	}
}

// TestSpecKeyMatchesRegistryNames: every registry exhibit yields a distinct
// default-spec key (the canonical form embeds the name, so this guards
// against a registry rename silently aliasing cached results).
func TestSpecKeyMatchesRegistryNames(t *testing.T) {
	keys := map[string]string{}
	for _, name := range experiments.Names() {
		s := Spec{Exhibit: name}
		if err := s.Validate(); err != nil {
			t.Fatalf("registry exhibit %q fails spec validation: %v", name, err)
		}
		if prior, dup := keys[s.Key()]; dup {
			t.Fatalf("exhibits %q and %q share cache key %s", name, prior, s.Key())
		}
		keys[s.Key()] = name
	}
}

// TestParseSpecRejections: malformed or out-of-contract specs fail with a
// diagnostic rather than running something else.
func TestParseSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		want string
	}{
		{"unknown field", `{"exhibit":"fig1","trails":5}`, `unknown field "trails"`},
		{"wrong-case key", `{"EXHIBIT":"fig4"}`, `field "EXHIBIT" must be spelled "exhibit"`},
		{"case-folded repeat", `{"exhibit":"fig1","Exhibit":"fig4"}`, `field "Exhibit" must be spelled "exhibit"`},
		{"repeated key", `{"exhibit":"fig1","exhibit":"fig4"}`, `duplicate field "exhibit"`},
		{"not an object", `["fig1"]`, "want a JSON object"},
		{"unknown exhibit", `{"exhibit":"fig9"}`, "unknown exhibit"},
		{"group alias all", `{"exhibit":"all"}`, "group alias"},
		{"group alias ext-all", `{"exhibit":"ext-all"}`, "group alias"},
		{"missing exhibit", `{"trials":5}`, "exhibit is required"},
		{"negative trials", `{"exhibit":"fig1","trials":-1}`, "non-negative"},
		{"negative patterns", `{"exhibit":"fig4","patterns":-2}`, "non-negative"},
		{"over scale cap", fmt.Sprintf(`{"exhibit":"fig1","trials":%d}`, maxScale+1), "exceeds"},
		{"not json", `exhibit=fig1`, "decode spec"},
		{"wrong type", `{"exhibit":"fig1","trials":"many"}`, "decode spec"},
		{"second value", `{"exhibit":"fig1"}{"exhibit":"fig4"}`, "trailing data"},
		{"trailing garbage", `{"exhibit":"fig1"} trailing garbage`, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(strings.NewReader(tc.raw))
			if err == nil {
				t.Fatalf("ParseSpec(%s) accepted, want error containing %q", tc.raw, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ParseSpec(%s) error %q, want it to contain %q", tc.raw, err, tc.want)
			}
		})
	}
}

// TestSpecRoundTrip: the API's own JSON rendering of a spec parses back to
// an identical key (poll responses echo specs; a client resubmitting one
// must hit the cache). Trailing whitespace, such as the newline a
// json.Encoder body ends with, is not trailing data.
func TestSpecRoundTrip(t *testing.T) {
	for _, s := range []Spec{
		{Exhibit: "fig1"},
		{Exhibit: "fig4", Trials: 3, Patterns: 2, Arrivals: 10, Seed: 12345},
	} {
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(strings.NewReader(string(raw) + " \r\n\t"))
		if err != nil {
			t.Fatalf("round-trip of %s: %v", raw, err)
		}
		if back.Key() != s.Key() {
			t.Errorf("round-trip of %s changed key: %s -> %s", raw, s.Key(), back.Key())
		}
	}
}

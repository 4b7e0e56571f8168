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

// TestSpecKeySensitivity: changing any single parameter changes the key.
func TestSpecKeySensitivity(t *testing.T) {
	base := Spec{Exhibit: "fig4", Trials: 10, Patterns: 6, Arrivals: 40, Seed: 1}
	mutations := map[string]Spec{
		"exhibit":  {Exhibit: "fig5", Trials: 10, Patterns: 6, Arrivals: 40, Seed: 1},
		"trials":   {Exhibit: "fig4", Trials: 11, Patterns: 6, Arrivals: 40, Seed: 1},
		"patterns": {Exhibit: "fig4", Trials: 10, Patterns: 7, Arrivals: 40, Seed: 1},
		"arrivals": {Exhibit: "fig4", Trials: 10, Patterns: 6, Arrivals: 41, Seed: 1},
		"seed":     {Exhibit: "fig4", Trials: 10, Patterns: 6, Arrivals: 40, Seed: 2},
		"zeroed":   {Exhibit: "fig4"},
	}
	seen := map[string]string{base.Canonical(): "base"}
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
		{"unknown field", `{"exhibit":"fig1","trails":5}`, "trails"},
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

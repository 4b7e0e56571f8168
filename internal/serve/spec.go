// Package serve is the simulation-as-a-service layer: an HTTP front end
// (net/http only) that accepts experiment specs as JSON, canonicalizes and
// hashes each spec into a cache key, and executes them on a bounded
// worker pool over the shared experiments registry.
//
// The layer is built from five pieces, each in its own file:
//
//   - Spec (this file): the JSON request codec. Canonicalization maps every
//     semantically equal request — reordered fields, default-valued fields
//     omitted or spelled out — to one cache key, so the cache and
//     single-flight layers deduplicate on meaning, not on bytes.
//   - Store: the in-memory job table with the queued → running →
//     done/failed/canceled lifecycle and bounded terminal-job retention.
//   - Cache: an LRU of finished results with single-flight admission —
//     identical concurrent specs run once and every submitter shares the
//     result.
//   - Pool: the worker pool — one bounded, discardable FIFO that every
//     worker pops, an elastic width, and graceful drain.
//   - snapStore: the checkpoint tier (DESIGN.md §10, introduced in PR 5).
//     Every simulating exhibit reports per-cell completion through
//     experiments.Progress; interrupted executions leave a snapshot, and
//     resubmitting the same spec resumes from it instead of relaunching —
//     the serving-layer analogue of the paper's checkpoint/restart, with
//     the snapshot store playing the fast L1/L2 tiers to the result
//     cache's parallel-file-system role.
//
// Server wires the pieces to the obs metrics registry and to the HTTP
// codec (http.go), whose /v1 job routes run over any Backend — the mesh
// coordinator mounts the same handlers. Every time it reads or schedules
// goes through one Clock (clock.go): the wall clock, or a VirtualClock
// that runs the server in stepped, deterministic time. Each job's done
// channel (JobDone) closes when it settles. Config.CrashHook lets
// internal/chaos inject deterministic mid-job worker crashes to prove the
// resume path.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/report"
)

// Spec is one experiment request. The zero value of every optional field
// means "the exhibit's own default" (its registry row's Defaults, the
// scale results/ was generated with), so omitting a field and spelling
// out its default are the same request.
type Spec struct {
	// Exhibit names the experiment in the experiments registry (fig1,
	// fig4, ext-tau, ...). Group aliases (all, ext-all) are rejected: one
	// job runs one exhibit.
	Exhibit string `json:"exhibit"`
	// Trials is the Monte-Carlo repetition count for trial-based exhibits.
	Trials int `json:"trials,omitempty"`
	// Patterns is the arrival-pattern count for cluster exhibits.
	Patterns int `json:"patterns,omitempty"`
	// Arrivals is the applications-per-pattern count for cluster exhibits.
	Arrivals int `json:"arrivals,omitempty"`
	// Seed overrides the master random seed (0 = the paper-epoch default).
	Seed uint64 `json:"seed,omitempty"`
}

// maxScale caps the per-field statistical scale a single request may ask
// for, bounding the work one job can queue.
const maxScale = 100000

// ParseSpec decodes (see DecodeStrict) and validates one JSON spec.
func ParseSpec(r io.Reader) (Spec, error) {
	var s Spec
	if err := DecodeStrict(r, map[string]any{
		"exhibit": &s.Exhibit, "trials": &s.Trials, "patterns": &s.Patterns,
		"arrivals": &s.Arrivals, "seed": &s.Seed,
	}); err != nil {
		return Spec{}, fmt.Errorf("decode spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// DecodeStrict decodes exactly one JSON object from r, each key into the
// destination fields holds under it: every key spelled exactly as there,
// none of them twice, and nothing but whitespace after the object.
// encoding/json alone would match keys case-insensitively and let the
// last duplicate win, so a misspelled or repeated parameter could
// silently change what runs; a second concatenated value must not be
// dropped either. Absent keys leave their destinations untouched.
func DecodeStrict(r io.Reader, fields map[string]any) error {
	dec := json.NewDecoder(r)
	if tok, err := dec.Token(); err != nil {
		return err
	} else if tok != json.Delim('{') {
		return errors.New("want a JSON object")
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		key := tok.(string) // the decoder only yields strings in key position
		dst, ok := fields[key]
		switch {
		case !ok:
			for name := range fields {
				if strings.EqualFold(key, name) {
					return fmt.Errorf("field %q must be spelled %q", key, name)
				}
			}
			return fmt.Errorf("unknown field %q", key)
		case seen[key]:
			return fmt.Errorf("duplicate field %q", key)
		}
		seen[key] = true
		if err := dec.Decode(dst); err != nil {
			return fmt.Errorf("field %q: %w", key, err)
		}
	}
	if _, err := dec.Token(); err != nil { // the closing brace
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// Validate checks the spec against the experiments registry and the
// service's scale bounds.
func (s Spec) Validate() error {
	if s.Exhibit == "" {
		return fmt.Errorf("spec: exhibit is required")
	}
	for _, g := range experiments.GroupNames() {
		if s.Exhibit == g {
			return fmt.Errorf("spec: exhibit %q is a group alias; submit one exhibit per job", s.Exhibit)
		}
	}
	if _, ok := experiments.Lookup(s.Exhibit); !ok {
		return fmt.Errorf("spec: unknown exhibit %q", s.Exhibit)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"trials", s.Trials}, {"patterns", s.Patterns}, {"arrivals", s.Arrivals}} {
		if f.v < 0 {
			return fmt.Errorf("spec: %s must be non-negative, got %d", f.name, f.v)
		}
		if f.v > maxScale {
			return fmt.Errorf("spec: %s %d exceeds the service cap of %d", f.name, f.v, maxScale)
		}
	}
	return nil
}

// Canonical returns the canonical serialization the cache key hashes:
// every field in a fixed order, zero values spelled out. Scale fields are
// first resolved as the registry runs them (Exhibit.Resolve), so trials
// that buy the same whole antithetic pairs or probes hash alike. A
// resolved field equal to the exhibit's default, or one the exhibit does
// not read (its default is 0), is written as 0, so a default spelled out,
// omitted, or an unread field set all hash alike. The seed stays as given:
// a server may run with a non-default seed.
func (s Spec) Canonical() string {
	if ex, ok := experiments.Lookup(s.Exhibit); ok {
		d, r := ex.Defaults, ex.Resolve(s.Params())
		s.Trials = unlessDefault(r.Trials, d.Trials)
		s.Patterns = unlessDefault(r.Patterns, d.Patterns)
		s.Arrivals = unlessDefault(r.Arrivals, d.Arrivals)
	}
	return fmt.Sprintf("exhibit=%s&trials=%d&patterns=%d&arrivals=%d&seed=%d",
		s.Exhibit, s.Trials, s.Patterns, s.Arrivals, s.Seed)
}

// unlessDefault canonicalizes one scale field against its default.
func unlessDefault(v, def int) int {
	if v == def || def == 0 {
		return 0
	}
	return v
}

// Key is the spec's cache key: the hex SHA-256 of its canonical form.
func (s Spec) Key() string {
	sum := sha256.Sum256([]byte(s.Canonical()))
	return hex.EncodeToString(sum[:])
}

// Params maps the spec onto the registry's scale parameters.
func (s Spec) Params() experiments.Params {
	return experiments.Params{Trials: s.Trials, Patterns: s.Patterns, Arrivals: s.Arrivals}
}

// Result is one finished experiment: the exhibit's CSV bytes (identical to
// what `exasim -csv` writes for the same spec), its SHA-256 digest, the
// rendered text table, and the execution wall time. Results are immutable
// once built; the cache hands the same *Result to every subscriber.
type Result struct {
	CSV     []byte
	Text    string
	Digest  string
	Elapsed time.Duration
}

// RunSpec executes a validated spec against the experiments registry. It
// is the server's default Runner, and the reference a served result must
// match.
func RunSpec(cfg experiments.Config, s Spec) (*Result, error) {
	ex, ok := experiments.Lookup(s.Exhibit)
	if !ok {
		return nil, fmt.Errorf("unknown exhibit %q", s.Exhibit)
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	start := time.Now()
	t, _, err := ex.Run(cfg, s.Params())
	if err != nil {
		return nil, err
	}
	return buildResult(t, time.Since(start))
}

// buildResult freezes a rendered table into an immutable Result.
func buildResult(t *report.Table, elapsed time.Duration) (*Result, error) {
	var csv strings.Builder
	if err := t.WriteCSV(&csv); err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(csv.String()))
	return &Result{
		CSV:     []byte(csv.String()),
		Text:    t.String(),
		Digest:  hex.EncodeToString(sum[:]),
		Elapsed: elapsed,
	}, nil
}

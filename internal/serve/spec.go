// Package serve is the simulation-as-a-service layer: an HTTP front end
// (net/http only) that accepts experiment specs as JSON, canonicalizes and
// hashes each spec into a cache key, and executes them on a bounded,
// sharded worker pool over the shared experiments registry.
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
//   - Pool: the sharded worker pool with bounded, discardable queues,
//     per-job timeouts, and graceful drain.
//   - snapStore: the checkpoint tier (DESIGN.md §10, introduced in PR 5).
//     Grid exhibits report per-cell completion through
//     experiments.Progress; interrupted executions leave a snapshot, and
//     resubmitting the same spec resumes from it instead of relaunching —
//     the serving-layer analogue of the paper's checkpoint/restart, with
//     the snapshot store playing the fast L1/L2 tiers to the result
//     cache's parallel-file-system role.
//
// Server wires the pieces to HTTP routes and the obs metrics registry;
// Config.CrashHook lets internal/chaos inject deterministic mid-job
// worker crashes to prove the resume path.
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
// means "the exhibit's own default" (the paper's statistical scale), so
// omitting a field and spelling out its default are the same request.
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

// ParseSpec decodes and validates one JSON spec. Unknown fields and
// trailing data are rejected: a misspelled parameter must not silently
// run the default experiment, nor a second concatenated spec be dropped.
func ParseSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("decode spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errors.New("decode spec: trailing data after the JSON value")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
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
// every field in a fixed order, zero values spelled out. Two specs are the
// same experiment if and only if their canonical forms are equal.
func (s Spec) Canonical() string {
	return fmt.Sprintf("exhibit=%s&trials=%d&patterns=%d&arrivals=%d&seed=%d",
		s.Exhibit, s.Trials, s.Patterns, s.Arrivals, s.Seed)
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

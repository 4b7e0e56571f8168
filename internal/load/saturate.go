package load

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"exaresil/internal/report"
	"exaresil/internal/rng"
	"exaresil/internal/serve"
)

// SweepConfig shapes one saturation sweep: the rate grid, the traffic
// shape at each step, and the knee budgets.
type SweepConfig struct {
	// Rates is the offered arrival-rate grid in requests per second,
	// swept in order (ascending grids make the knee reading natural).
	Rates []float64
	// StepDur is each step's length in seconds (virtual for the
	// in-process target, wall-clock for HTTP).
	StepDur float64
	// Seed derives each step's generator seed (step i uses
	// rng.CellSeed(Seed, i)); one seed pins the entire sweep.
	Seed uint64
	// Process is the arrival process (default ProcessPoisson).
	Process string
	// Vocab is the ranked spec vocabulary (default DefaultVocab(64)).
	Vocab []serve.Spec
	// ZipfS is the popularity exponent (0 = uniform).
	ZipfS float64
	// P99Budget is the latency knee threshold in seconds (0 disables the
	// latency criterion).
	P99Budget float64
	// RejectBudget is the 429-rate knee threshold as a fraction of
	// offered load (0 disables the reject criterion).
	RejectBudget float64
	// KeepSteps retains every step's samples on the report (memory for
	// analysis; the CSV never includes them).
	KeepSteps bool
}

// validate normalizes the config.
func (c *SweepConfig) validate() error {
	if len(c.Rates) == 0 {
		return fmt.Errorf("sweep: rate grid is empty")
	}
	for i, r := range c.Rates {
		if r <= 0 {
			return fmt.Errorf("sweep: rate %d (%v) must be positive", i+1, r)
		}
	}
	if c.StepDur <= 0 {
		return fmt.Errorf("sweep: step duration must be positive, got %v", c.StepDur)
	}
	if len(c.Vocab) == 0 {
		c.Vocab = DefaultVocab(64)
	}
	if c.Process == "" {
		c.Process = ProcessPoisson
	}
	return nil
}

// Step is one sweep step's measurement.
type Step struct {
	// Rate is the offered rate in requests per second.
	Rate float64
	// Offered, OK, Rejected, Errors partition the step's arrivals.
	Offered, OK, Rejected, Errors int
	// Throughput is completed requests per second (OK / StepDur).
	Throughput float64
	// P50, P95, P99 are latency percentiles over the step's completed
	// requests, in seconds.
	P50, P95, P99 float64
	// CacheHits, CacheJoined, CacheMisses are the server-side cache
	// outcome deltas for the step. The server counts a saturated
	// admission as a miss before rejecting it, so misses include the
	// rejected arrivals.
	CacheHits, CacheJoined, CacheMisses uint64
	// HitRate is CacheHits over all cache lookups in the step.
	HitRate float64
	// Samples holds the per-arrival outcomes when SweepConfig.KeepSteps
	// was set.
	Samples []Sample
}

// RejectRate is the step's 429 fraction of offered load.
func (s Step) RejectRate() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Rejected) / float64(s.Offered)
}

// Report is a finished sweep: the per-step grid and the knee verdict.
type Report struct {
	Config SweepConfig
	Steps  []Step
	// KneeIndex is the first step that crossed a budget, -1 when the
	// sweep never saturated.
	KneeIndex int
	// KneeReason names the budget that tripped.
	KneeReason string
}

// Knee reports the knee step, if any.
func (r *Report) Knee() (Step, bool) {
	if r.KneeIndex < 0 || r.KneeIndex >= len(r.Steps) {
		return Step{}, false
	}
	return r.Steps[r.KneeIndex], true
}

// Sweep drives the target across the rate grid: each step generates a
// fresh seed-derived arrival schedule at that rate, serves it to the
// end, and differences the server-side counters. Knee detection runs over the
// finished grid: the knee is the first step whose p99 exceeds P99Budget
// or whose reject rate exceeds RejectBudget.
func Sweep(ctx context.Context, target Target, cfg SweepConfig) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rep := &Report{Config: cfg, KneeIndex: -1}
	before, err := target.Counters()
	if err != nil {
		return nil, fmt.Errorf("sweep: read counters: %w", err)
	}
	for i, rate := range cfg.Rates {
		arrivals, err := Generate(GenSpec{
			Seed:    rng.CellSeed(cfg.Seed, uint64(i)),
			Profile: Profile{Segments: []Segment{{Kind: KindConstant, Rate: rate, Dur: cfg.StepDur}}},
			Process: cfg.Process,
			Vocab:   cfg.Vocab,
			ZipfS:   cfg.ZipfS,
		})
		if err != nil {
			return nil, fmt.Errorf("sweep step %d: %w", i+1, err)
		}
		samples, err := target.RunSchedule(ctx, arrivals)
		if err != nil {
			return nil, fmt.Errorf("sweep step %d (rate %v): %w", i+1, rate, err)
		}
		after, err := target.Counters()
		if err != nil {
			return nil, fmt.Errorf("sweep step %d: read counters: %w", i+1, err)
		}
		step := measureStep(rate, cfg.StepDur, samples, before, after)
		if cfg.KeepSteps {
			step.Samples = samples
		}
		rep.Steps = append(rep.Steps, step)
		before = after
	}
	for i, s := range rep.Steps {
		switch {
		case cfg.P99Budget > 0 && s.OK > 0 && s.P99 > cfg.P99Budget:
			rep.KneeIndex, rep.KneeReason = i,
				fmt.Sprintf("p99 %s s exceeds the %s s budget", report.F(s.P99), report.F(cfg.P99Budget))
		case cfg.RejectBudget > 0 && s.RejectRate() > cfg.RejectBudget:
			rep.KneeIndex, rep.KneeReason = i,
				fmt.Sprintf("reject rate %s exceeds the %s budget", report.F(s.RejectRate()), report.F(cfg.RejectBudget))
		default:
			continue
		}
		break
	}
	return rep, nil
}

// measureStep folds one step's samples and counter deltas into a Step.
func measureStep(rate, stepDur float64, samples []Sample, before, after Counters) Step {
	st := Step{
		Rate:        rate,
		Offered:     len(samples),
		CacheHits:   after.CacheHits - before.CacheHits,
		CacheJoined: after.CacheJoined - before.CacheJoined,
		CacheMisses: after.CacheMisses - before.CacheMisses,
	}
	var lats []float64
	for _, s := range samples {
		switch s.Class {
		case OutcomeOK:
			st.OK++
			lats = append(lats, s.Latency)
		case OutcomeRejected:
			st.Rejected++
		default:
			st.Errors++
		}
	}
	st.Throughput = float64(st.OK) / stepDur
	sort.Float64s(lats)
	st.P50 = pctl(lats, 0.50)
	st.P95 = pctl(lats, 0.95)
	st.P99 = pctl(lats, 0.99)
	if lookups := st.CacheHits + st.CacheJoined + st.CacheMisses; lookups > 0 {
		st.HitRate = float64(st.CacheHits) / float64(lookups)
	}
	return st
}

// pctl is the q-th percentile of sorted values (nearest-rank); empty
// input reports zero.
func pctl(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted))*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Table renders the report as the repository's standard exhibit table —
// the form exaload prints, exacheck digests, and results/golden pins.
func (r *Report) Table() *report.Table {
	t := report.New("Saturation sweep: offered rate vs latency, rejects, and cache skew",
		"rate_rps", "offered", "ok", "rejected", "errors", "throughput_rps",
		"p50_s", "p95_s", "p99_s", "cache_hits", "cache_joined", "cache_misses", "hit_rate", "knee")
	t.AddNote("process=%s step_dur=%ss zipf_s=%s vocab=%d seed=%d",
		r.Config.Process, report.F(r.Config.StepDur), report.F(r.Config.ZipfS), len(r.Config.Vocab), r.Config.Seed)
	t.AddNote("knee budgets: p99 <= %s s, reject rate <= %s", report.F(r.Config.P99Budget), report.F(r.Config.RejectBudget))
	if knee, ok := r.Knee(); ok {
		t.AddNote("knee at %s req/s: %s", report.F(knee.Rate), r.KneeReason)
	} else {
		t.AddNote("no knee: every step stayed inside the budgets")
	}
	for i, s := range r.Steps {
		marker := ""
		if i == r.KneeIndex {
			marker = "*"
		}
		t.AddRow(report.F(s.Rate), report.I(s.Offered), report.I(s.OK), report.I(s.Rejected),
			report.I(s.Errors), report.F(s.Throughput),
			report.F(s.P50), report.F(s.P95), report.F(s.P99),
			report.I(int(s.CacheHits)), report.I(int(s.CacheJoined)), report.I(int(s.CacheMisses)),
			report.F(s.HitRate), marker)
	}
	return t
}

// WriteCSV writes the capacity-planning report CSV.
func (r *Report) WriteCSV(w io.Writer) error {
	return r.Table().WriteCSV(w)
}

// Summary renders the human-readable verdict under the table.
func (r *Report) Summary() string {
	var b strings.Builder
	if knee, ok := r.Knee(); ok {
		fmt.Fprintf(&b, "knee: %s req/s (step %d/%d) — %s\n",
			report.F(knee.Rate), r.KneeIndex+1, len(r.Steps), r.KneeReason)
		fmt.Fprintf(&b, "capacity guidance: plan below %s req/s; at the knee the fleet completed %s req/s with p99 %ss and %s rejects\n",
			report.F(knee.Rate), report.F(knee.Throughput), report.F(knee.P99), report.I(knee.Rejected))
	} else {
		fmt.Fprintf(&b, "no knee found across %d steps (max offered %s req/s); raise the grid to find capacity\n",
			len(r.Steps), report.F(r.Steps[len(r.Steps)-1].Rate))
	}
	return b.String()
}

// GoldenSweepTable runs the pinned deterministic sweep — a fresh
// in-process single-replica exaserve, the pinned seed/grid/vocabulary —
// and renders its table. cmd/exacheck digests it into the golden
// manifest; cmd/exaload runs the same configuration via `sweep -inproc`
// defaults, so the CLI and the gate can never drift apart.
func GoldenSweepTable() (*report.Table, error) {
	target, err := NewInproc(GoldenInprocConfig())
	if err != nil {
		return nil, err
	}
	defer target.Close()
	rep, err := Sweep(context.Background(), target, GoldenSweepConfig())
	if err != nil {
		return nil, err
	}
	return rep.Table(), nil
}

// GoldenSweepConfig is the pinned sweep grid.
func GoldenSweepConfig() SweepConfig {
	return SweepConfig{
		Rates:        []float64{0.5, 1, 2, 4, 8},
		StepDur:      40,
		Seed:         20170529, // the paper-epoch seed the exhibits use
		Process:      ProcessPoisson,
		Vocab:        DefaultVocab(64),
		ZipfS:        1.1,
		P99Budget:    5,
		RejectBudget: 0.05,
	}
}

// GoldenInprocConfig is the pinned in-process capacity model: one worker,
// four queue slots, an eight-entry cache under a 64-spec Zipf vocabulary,
// 0.8 virtual seconds per execution.
func GoldenInprocConfig() InprocConfig {
	return InprocConfig{QueueDepth: 4, CacheSize: 8}
}

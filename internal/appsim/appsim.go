// Package appsim is the Monte-Carlo harness for single-application
// resilience studies: it runs many independent simulated executions of one
// (application, technique) pair across worker goroutines and aggregates
// their statistics.
//
// Trials are reproducible regardless of scheduling: trial i always draws
// its randomness from rng.Stream(seed, i), so a study's numbers depend only
// on its seed and trial count, never on GOMAXPROCS. Cells (cells.go) is
// the loop above it: every exhibit runs its cells through it, under the
// Progress checkpoint/restart hook.
package appsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/stats"
	"exaresil/internal/units"
)

// DefaultHorizonFactor bounds runaway executions: a run is abandoned (and
// scored at zero efficiency) once it exceeds this multiple of the
// application's baseline execution time. The paper's degenerate regimes
// (Checkpoint Restart at exascale with unreliable components) are exactly
// the runs this cap catches.
const DefaultHorizonFactor = 100

// TrialSpec describes a Monte-Carlo study of one executor.
type TrialSpec struct {
	// Executor is the (application, technique) pair under study.
	Executor *resilience.Executor
	// Metrics, when non-nil, receives every trial's run: each worker's
	// Runtime records into it.
	Metrics *resilience.Metrics
	// Trials is the number of independent executions (the paper uses 200
	// for the scaling studies).
	Trials int
	// Seed selects the family of random streams.
	Seed uint64
	// HorizonFactor overrides DefaultHorizonFactor when positive.
	HorizonFactor float64
	// Workers overrides the worker goroutine count (default GOMAXPROCS).
	Workers int

	// Antithetic switches the study to variance-reduced draws: trials run
	// in antithetic pairs, trial 2k and 2k+1 sharing the (Seed, Cell, k)
	// substream with the odd member's continuous draws mirrored (U -> 1-U;
	// see rng.SetMirror). An odd Trials count simply leaves the last trial
	// unpaired. Pair means are unbiased and negatively correlated, so the
	// study reaches a given confidence width in fewer trials — DESIGN.md
	// §11 discusses when the pairing is statistically valid.
	Antithetic bool
	// Cell names the study's coordinate in a larger grid when Antithetic
	// is set: streams come from rng.SubStream(Seed, Cell, k), so several
	// studies probing the same cell — the technique arms of a selection
	// cell — share identical failure draws (common random numbers) by
	// passing the same (Seed, Cell). Ignored in the default mode, which
	// keeps the historical per-trial rng.Stream(Seed, i) derivation.
	Cell uint64
}

// TrialStats aggregates the results of a Monte-Carlo study.
type TrialStats struct {
	// Efficiency summarizes the paper's headline metric over all trials;
	// incomplete runs contribute zeros.
	Efficiency stats.Summary
	// Makespan summarizes wall time over completed trials only.
	Makespan stats.Summary
	// Failures, Rollbacks, and Checkpoints summarize event counts over
	// all trials.
	Failures, Rollbacks, Checkpoints stats.Summary
	// CompletionRate is the fraction of trials that finished before the
	// horizon.
	CompletionRate float64
}

// Run executes the study. It panics on a non-positive trial count, and
// returns all-zero statistics for non-viable executors without running
// anything (their efficiency is identically zero).
func Run(spec TrialSpec) TrialStats {
	if spec.Trials <= 0 {
		panic(fmt.Sprintf("appsim: trial count %d must be positive", spec.Trials))
	}
	x := spec.Executor
	horizonFactor := spec.HorizonFactor
	if horizonFactor <= 0 {
		horizonFactor = DefaultHorizonFactor
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > spec.Trials {
		workers = spec.Trials
	}

	if ok, _ := x.Viable(); !ok {
		// Every run would be blocked at zero efficiency; synthesize the
		// aggregate directly.
		var eff, counts stats.Accumulator
		for i := 0; i < spec.Trials; i++ {
			eff.Add(0)
			counts.Add(0)
		}
		return TrialStats{
			Efficiency:  eff.Summarize(),
			Failures:    counts.Summarize(),
			Rollbacks:   counts.Summarize(),
			Checkpoints: counts.Summarize(),
		}
	}

	horizon := units.Duration(horizonFactor * float64(x.App().Baseline()))

	// Each trial writes its observations into its own slot; the aggregation
	// below folds the slots in trial order. Trial i's randomness is
	// rng.Stream(seed, i) regardless of which worker runs it, and the
	// order-sensitive Welford accumulation happens single-threaded over the
	// numbered slots, so the study's statistics are bit-identical for any
	// worker count — stronger than the old per-worker-accumulator scheme,
	// which was deterministic only to floating-point merge order.
	type trialResult struct {
		eff, failures, rollbacks, ckpts float64
		makespan                        float64
		completed                       bool
	}
	results := make([]trialResult, spec.Trials)

	// The executor is read-only, so every worker runs it; what a run
	// writes lives in the worker's resilience.Runtime (the engine, with its
	// simulator, event pool and run state), made on the worker's own
	// goroutine and warm across that worker's trials. Trials are handed
	// out by an atomic counter: one add per trial instead of a channel
	// send/recv pair, and no dispatcher goroutine.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := resilience.NewRuntime(spec.Metrics)
			// One scratch source per worker, re-seeded in place for each
			// trial: the same streams rng.Stream/SubStream would allocate,
			// without the per-trial allocation. A run only reads the source
			// inside Runtime.Run, so sequential trials may share it.
			var src rng.Source
			for {
				trial := next.Add(1) - 1
				if trial >= int64(spec.Trials) {
					return
				}
				if spec.Antithetic {
					// Pair k = trial/2; the odd member mirrors its twin.
					src.SetSubStream(spec.Seed, spec.Cell, uint64(trial)/2)
					src.SetMirror(trial%2 == 1)
				} else {
					src.SetStream(spec.Seed, uint64(trial))
				}
				res := rt.Run(x, 0, horizon, &src)
				results[trial] = trialResult{
					eff:       res.Efficiency(),
					failures:  float64(res.Failures),
					rollbacks: float64(res.Rollbacks),
					ckpts:     float64(res.TotalCheckpoints()),
					makespan:  res.Makespan().Minutes(),
					completed: res.Completed,
				}
			}
		}()
	}
	wg.Wait()

	var out struct {
		eff, makespan, failures, rollbacks, ckpts stats.Accumulator
		completed                                 int
	}
	for _, r := range results {
		out.eff.Add(r.eff)
		out.failures.Add(r.failures)
		out.rollbacks.Add(r.rollbacks)
		out.ckpts.Add(r.ckpts)
		if r.completed {
			out.completed++
			out.makespan.Add(r.makespan)
		}
	}
	return TrialStats{
		Efficiency:     out.eff.Summarize(),
		Makespan:       out.makespan.Summarize(),
		Failures:       out.failures.Summarize(),
		Rollbacks:      out.rollbacks.Summarize(),
		Checkpoints:    out.ckpts.Summarize(),
		CompletionRate: float64(out.completed) / float64(spec.Trials),
	}
}

package resilience

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/units"
)

// Result summarizes one simulated application execution under a resilience
// technique.
type Result struct {
	// Technique is the resilience technique that produced the run.
	Technique core.Technique
	// Completed reports whether the application finished all of its work
	// before the run's horizon. Runs that cannot complete (for example
	// Checkpoint Restart with a non-positive Daly period, or redundancy
	// on a machine too small for the replica set) report false.
	Completed bool
	// Blocked, when non-empty, explains why the run could not execute at
	// all (it never occupied the machine).
	Blocked string
	// End is when the execution finished, measured from its start, so it
	// is also the makespan; for incomplete runs it is the horizon at which
	// the run was abandoned, and zero for a blocked run.
	End units.Duration
	// Baseline is T_B, the delay- and overhead-free execution time used
	// as the numerator of the efficiency metric.
	Baseline units.Duration
	// EffectiveWork is the technique-inflated total work (Eqs. 7 and 8);
	// equal to Baseline for techniques without intrinsic slowdown.
	EffectiveWork units.Duration
	// Failures counts failure events that struck the application's nodes.
	Failures int
	// Rollbacks counts failures that forced a restart (for redundancy,
	// fewer than Failures; surviving replicas absorb the rest).
	Rollbacks int
	// Checkpoints counts completed checkpoints by level (index 1-3; PFS
	// checkpoints of single-level techniques count at their level, 3).
	Checkpoints [4]int
	// CheckpointTime, RestartTime and ReworkTime decompose the overhead:
	// time spent writing checkpoints, time spent restoring state after
	// failures, and wall time spent recomputing work already done before
	// a failure.
	CheckpointTime, RestartTime, ReworkTime units.Duration
	// RelaunchTime is the subset of RestartTime spent on from-scratch
	// relaunches (restores with no surviving checkpoint, trace level 0) as
	// opposed to real checkpoint restores.
	RelaunchTime units.Duration
	// LostWork is the total work-minutes discarded by rollbacks (the
	// rework is LostWork divided by the technique's recovery speed).
	LostWork units.Duration
	// OverlappedWork is progress earned during checkpoint writes when the
	// semi-blocking extension is enabled (zero under the paper's blocking
	// model); it explains why makespan can undercut the naive sum of
	// phase times.
	OverlappedWork units.Duration
}

// Efficiency is the paper's metric: the ratio of the application's
// delay-free baseline execution time to its actual execution time, zero for
// runs that never completed.
func (r Result) Efficiency() float64 {
	if !r.Completed || r.End <= 0 {
		return 0
	}
	return float64(r.Baseline) / float64(r.End)
}

// TotalCheckpoints reports the number of completed checkpoints at every
// level.
func (r Result) TotalCheckpoints() int {
	total := 0
	for _, n := range r.Checkpoints {
		total += n
	}
	return total
}

// String renders the result for logs.
func (r Result) String() string {
	if !r.Completed {
		reason := r.Blocked
		if reason == "" {
			reason = "horizon exceeded"
		}
		return fmt.Sprintf("%s: incomplete (%s) after %s, %d failures",
			r.Technique, reason, r.End, r.Failures)
	}
	return fmt.Sprintf("%s: completed in %s (eff %.3f), %d failures, %d rollbacks, %d checkpoints",
		r.Technique, r.End, r.Efficiency(), r.Failures, r.Rollbacks, r.TotalCheckpoints())
}

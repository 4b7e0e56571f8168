// Package check is the model-conformance audit harness: it cross-validates
// the discrete-event simulator against the closed-form analytic models and
// enforces the runtime invariants every execution trace must satisfy.
//
// The package has three instruments, combined by the sweep in
// conformance.go and exposed individually for tests and the exacheck CLI:
//
//   - Checker (this file) is a resilience.Observer that replays a run's
//     trace through an independent mirror of the engine's state machine and
//     records every contract violation: time or progress going backwards,
//     restores that resurrect destroyed checkpoints, restore levels below a
//     failure's severity, completions away from the effective-work total.
//   - Sweep (conformance.go) runs a grid of (technique, class, size, MTBF)
//     cells, checks every trace, and compares the Monte-Carlo mean
//     efficiency of each cell against the analytic prediction.
//   - Metamorphic (metamorphic.go) checks the model-level scaling relations
//     that hold across runs rather than within one.
//
// The checker assumes the paper's blocking-checkpoint model (the sweep's
// configuration); under the semi-blocking extension progress legitimately
// overshoots snapshots during writes and the equality checks here do not
// apply.
package check

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/resilience"
	"exaresil/internal/units"
)

// progressEpsilon absorbs the engine's floating-point drift (its internal
// workEpsilon is 1e-9 minutes; accumulated segment arithmetic can drift a
// few orders beyond that over a long run).
const progressEpsilon = 1e-6

// Violation is one broken runtime invariant, attributed to the simulation
// moment and run that produced it.
type Violation struct {
	// Context identifies the run (sweep cell and trial, or a caller label).
	Context string
	// Time is the simulation time of the offending event.
	Time units.Duration
	// Msg states the broken invariant.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at %s: %s", v.Context, v.Time, v.Msg)
}

// Checker validates a single executor's traces against the engine's
// contract. Make Observe the Observer of the Runtime that runs the
// executor, call BeginRun before each run and FinishRun after it with the
// run's Result. The checker accumulates violations across runs; it never
// stops a simulation.
type Checker struct {
	tech core.Technique
	// levels is the technique whose table row bounds checkpoint levels.
	levels     core.Technique
	multilevel bool
	// A positive reStoreDegree enables the replica-holder-loss mirror: it
	// is k, and reStoreLost counts the holders destroyed since the last
	// commit, so the checker independently predicts when a restore must
	// degrade to a from-scratch relaunch. A degenerate ReStore executor (no
	// peers for the replicas) has degree 0: it behaves — and is mirrored,
	// levels included — exactly as Checkpoint Restart.
	reStoreDegree int
	reStoreLost   int // per-run, reset by BeginRun

	context    string
	violations []Violation

	// Per-run trace state, reset by BeginRun.
	started     bool
	completed   bool
	events      int
	lastTime    units.Duration
	progress    units.Duration // progress at the last event
	maxProgress units.Duration
	completedAt units.Duration // progress at the completion event

	inCheckpoint bool
	ckptLevel    int
	ckptSnapshot units.Duration

	committed [4]units.Duration // committed checkpoint progress per level
	has       [4]bool

	restorePending  bool
	pendingSeverity int
	expectedRestore units.Duration // progress the pending restore must resume at
	expectedLevel   int            // 0 = from scratch

	failures, rollbacks int
	checkpoints         [4]int
	restores            [4]int
	severities          [4]int

	// Trace-derived wall-time split of the current run: the mirror's
	// independent accounting of the engine's CheckpointTime, RestartTime
	// and RelaunchTime, accumulated from event brackets alone.
	ckptWallStart    units.Duration // valid while inCheckpoint
	restoreWallStart units.Duration // valid while restorePending
	split            PhaseSplit
}

// PhaseSplit is a trace-derived wall-time decomposition of one run: time
// inside checkpoint writes (including the sunk partial of an interrupted
// write), time inside restores, and — a subset of Restore — time in
// from-scratch relaunches (restores from level 0). It deliberately mirrors
// the Result's makespan decomposition so the two ledgers can be compared.
type PhaseSplit struct {
	Checkpoint, Restore, Relaunch units.Duration
}

// RunSplit reports the trace-derived split of the run most recently fed
// through Observe (reset by BeginRun).
func (c *Checker) RunSplit() PhaseSplit { return c.split }

// RunSeverities reports the run's failure counts by severity level
// (indices 1-3; reset by BeginRun).
func (c *Checker) RunSeverities() [4]int { return c.severities }

// NewChecker builds a checker for the given executor's runs. The run's
// effective-work total (a pure function of the strategy, reported by every
// Result) is supplied per run via BeginRun.
func NewChecker(x *resilience.Executor) *Checker {
	c := &Checker{
		tech:       x.Technique(),
		levels:     x.Technique(),
		multilevel: x.Technique() == core.MultilevelCheckpoint,
	}
	if info, ok := resilience.ReStoreInfoOf(x); ok {
		c.reStoreDegree = info.Degree
		if info.Degenerate {
			c.levels = core.CheckpointRestart
		}
	}
	return c
}

// BeginRun resets the per-run state. label names the run in violations.
func (c *Checker) BeginRun(label string) {
	c.context = label
	c.started, c.completed = false, false
	c.events = 0
	c.lastTime, c.progress = 0, 0
	c.maxProgress, c.completedAt = 0, 0
	c.inCheckpoint, c.ckptLevel, c.ckptSnapshot = false, 0, 0
	c.committed = [4]units.Duration{}
	c.has = [4]bool{}
	c.restorePending, c.pendingSeverity = false, 0
	c.expectedRestore, c.expectedLevel = 0, 0
	c.failures, c.rollbacks = 0, 0
	c.checkpoints = [4]int{}
	c.restores = [4]int{}
	c.severities = [4]int{}
	c.ckptWallStart, c.restoreWallStart = 0, 0
	c.split = PhaseSplit{}
	c.reStoreLost = 0
}

// Violations returns every violation recorded so far, across runs.
func (c *Checker) Violations() []Violation { return c.violations }

func (c *Checker) fail(t units.Duration, format string, args ...any) {
	c.violations = append(c.violations, Violation{
		Context: c.context,
		Time:    t,
		Msg:     fmt.Sprintf(format, args...),
	})
}

// Observe is the resilience.Observer callback.
func (c *Checker) Observe(ev resilience.TraceEvent) {
	c.events++
	if c.events > 1 && ev.Time < c.lastTime {
		c.fail(ev.Time, "time ran backwards: %s after %s", ev.Time, c.lastTime)
	}
	if c.completed {
		c.fail(ev.Time, "%s event after completion", ev.Kind)
	}

	switch ev.Kind {
	case resilience.TraceStart:
		if c.started {
			c.fail(ev.Time, "second start event")
		}
		c.started = true
		if ev.Progress != 0 {
			c.fail(ev.Time, "run started with progress %s, want 0", ev.Progress)
		}

	case resilience.TraceCheckpointStart:
		if c.restorePending {
			c.fail(ev.Time, "checkpoint started during a restore")
		}
		if c.inCheckpoint {
			c.fail(ev.Time, "nested checkpoint (level %d inside level %d)", ev.Level, c.ckptLevel)
		}
		c.checkProgressMonotone(ev)
		c.checkLevelRange(ev)
		c.inCheckpoint = true
		c.ckptLevel = ev.Level
		c.ckptSnapshot = ev.Progress
		c.ckptWallStart = ev.Time

	case resilience.TraceCheckpointEnd:
		if !c.inCheckpoint {
			c.fail(ev.Time, "checkpoint end without a start")
		} else {
			if ev.Level != c.ckptLevel {
				c.fail(ev.Time, "checkpoint ended at level %d but started at level %d", ev.Level, c.ckptLevel)
			}
			c.split.Checkpoint += ev.Time - c.ckptWallStart
		}
		c.checkProgressMonotone(ev)
		// The committed state is the snapshot captured at checkpoint START;
		// that is the strongest progress any later restore may resume at.
		if l := clamp(ev.Level); l >= 1 {
			c.committed[l] = c.ckptSnapshot
			c.has[l] = true
			c.checkpoints[l]++
		}
		c.inCheckpoint = false
		// A ReStore commit re-provisions the replica set: only holder
		// losses after this point can combine to destroy it.
		c.reStoreLost = 0

	case resilience.TraceFailure:
		c.failures++
		c.severities[clamp(int(ev.Severity))]++
		c.checkProgressMonotone(ev)
		if !ev.Rollback {
			break
		}
		c.rollbacks++
		// Wall time sunk into an interrupted blocking phase belongs to that
		// phase, exactly as the engine accounts it.
		if c.inCheckpoint {
			c.split.Checkpoint += ev.Time - c.ckptWallStart
		}
		if c.restorePending {
			partial := ev.Time - c.restoreWallStart
			c.split.Restore += partial
			if c.expectedLevel == 0 {
				c.split.Relaunch += partial
			}
		}
		// A rollback cancels any in-flight checkpoint and supersedes any
		// in-flight restore.
		c.inCheckpoint = false
		sev := int(ev.Severity)
		if c.multilevel {
			// Severity-j failures destroy the storage behind levels < j.
			for level := 1; level < sev && level <= 3; level++ {
				c.has[level] = false
				c.committed[level] = 0
			}
		}
		if c.reStoreDegree > 0 {
			// Mirror the replica ledger: a node loss destroys one holder's
			// copy, a catastrophic failure two; once the losses since the
			// last commit reach the degree, the in-memory checkpoint is gone
			// and the only legal restore is a from-scratch relaunch.
			c.reStoreLost += holderCopiesLost(sev)
			if c.reStoreLost >= c.reStoreDegree {
				c.has[2] = false
				c.committed[2] = 0
			}
		}
		c.restorePending = true
		c.pendingSeverity = sev
		c.expectedRestore, c.expectedLevel = c.expectRestore(sev)
		c.restoreWallStart = ev.Time

	case resilience.TraceRestartEnd:
		if !c.restorePending {
			c.fail(ev.Time, "restart ended without a rollback")
			break
		}
		c.restorePending = false
		c.restores[clamp(ev.Level)]++
		wall := ev.Time - c.restoreWallStart
		c.split.Restore += wall
		if ev.Level == 0 {
			c.split.Relaunch += wall
		}
		c.checkRestore(ev)

	case resilience.TraceComplete:
		c.checkProgressMonotone(ev)
		if c.restorePending {
			c.fail(ev.Time, "run completed mid-restore")
		}
		c.completed = true
		c.completedAt = ev.Progress
	}

	c.lastTime = ev.Time
	c.progress = ev.Progress
	if ev.Progress > c.maxProgress {
		c.maxProgress = ev.Progress
	}
}

// expectRestore mirrors the strategies' restore decision: the newest
// committed checkpoint the failure's severity allows (multilevel restricts
// to surviving levels >= severity; single-level techniques always restore
// their newest commit), or a from-scratch relaunch when none survives.
func (c *Checker) expectRestore(severity int) (units.Duration, int) {
	minLevel := 1
	if c.multilevel {
		minLevel = severity
	}
	best, bestProgress := 0, units.Duration(0)
	for level := minLevel; level <= 3; level++ {
		if c.has[level] && (best == 0 || c.committed[level] > bestProgress) {
			best = level
			bestProgress = c.committed[level]
		}
	}
	return bestProgress, best
}

// checkRestore validates a completed restore against the mirror.
func (c *Checker) checkRestore(ev resilience.TraceEvent) {
	if ev.Level == 0 && ev.Progress != 0 {
		c.fail(ev.Time, "from-scratch restart resumed at progress %s, want 0", ev.Progress)
	}
	if c.multilevel && ev.Level != 0 && ev.Level < c.pendingSeverity {
		c.fail(ev.Time, "restored from level %d after a severity-%d failure", ev.Level, c.pendingSeverity)
	}
	if ev.Progress > c.progress+progressEpsilon {
		c.fail(ev.Time, "restore resumed at %s, above the %s held at failure", ev.Progress, c.progress)
	}
	if ev.Level != c.expectedLevel {
		c.fail(ev.Time, "restored from level %d, want level %d (newest eligible checkpoint)", ev.Level, c.expectedLevel)
	}
	if delta := float64(ev.Progress - c.expectedRestore); delta < -progressEpsilon || delta > progressEpsilon {
		c.fail(ev.Time, "restored progress %s, want committed checkpoint %s", ev.Progress, c.expectedRestore)
	}
}

// checkProgressMonotone enforces monotone progress between events; only a
// completed rollback (TraceRestartEnd, validated separately) may lower it.
func (c *Checker) checkProgressMonotone(ev resilience.TraceEvent) {
	if c.restorePending {
		// Events during a restore (further failures) hold the restored
		// progress; the engine does not compute during restores.
		if delta := float64(ev.Progress - c.expectedRestore); delta < -progressEpsilon || delta > progressEpsilon {
			c.fail(ev.Time, "progress %s changed during a restore (restore point %s)", ev.Progress, c.expectedRestore)
		}
		return
	}
	if ev.Progress < c.progress-progressEpsilon {
		c.fail(ev.Time, "progress ran backwards: %s after %s without a rollback", ev.Progress, c.progress)
	}
}

// checkLevelRange validates a checkpoint's level against the levels the
// technique's table row writes (Checkpoint Restart's row for a degenerate
// ReStore executor, which writes to the PFS).
func (c *Checker) checkLevelRange(ev resilience.TraceEvent) {
	if !c.levels.WritesLevel(ev.Level) {
		c.fail(ev.Time, "%v checkpoint at level %d outside the technique's hierarchy", c.tech, ev.Level)
	}
}

// FinishRun cross-checks the trace against the run's Result: event counts
// must reconcile with the Result's counters and a completed run must have
// ended at its final event.
func (c *Checker) FinishRun(res resilience.Result) {
	end := res.End
	if res.Blocked != "" {
		if c.events != 0 {
			c.fail(end, "blocked run emitted %d events", c.events)
		}
		return
	}
	if c.events == 0 {
		c.fail(end, "run emitted no events (missing start)")
		return
	}
	if !c.started {
		c.fail(end, "trace has no start event")
	}
	if res.Completed != c.completed {
		c.fail(end, "Result.Completed=%v but trace completion=%v", res.Completed, c.completed)
	}
	if res.Failures != c.failures {
		c.fail(end, "Result counts %d failures, trace %d", res.Failures, c.failures)
	}
	if res.Rollbacks != c.rollbacks {
		c.fail(end, "Result counts %d rollbacks, trace %d", res.Rollbacks, c.rollbacks)
	}
	for level := 1; level <= 3; level++ {
		if res.Checkpoints[level] != c.checkpoints[level] {
			c.fail(end, "Result counts %d level-%d checkpoints, trace %d",
				res.Checkpoints[level], level, c.checkpoints[level])
		}
	}
	// The trace-derived phase split must reconcile with the Result's
	// makespan decomposition: both ledgers bracket the same blocking
	// phases, so they may differ only by floating-point drift. (A phase
	// still in flight at the horizon is excluded from both.)
	ttol := units.Duration(completionTol(res.End))
	if diff := c.split.Checkpoint - res.CheckpointTime; diff < -ttol || diff > ttol {
		c.fail(end, "trace-derived checkpoint time %s, Result reports %s", c.split.Checkpoint, res.CheckpointTime)
	}
	if diff := c.split.Restore - res.RestartTime; diff < -ttol || diff > ttol {
		c.fail(end, "trace-derived restore time %s, Result reports %s", c.split.Restore, res.RestartTime)
	}
	if diff := c.split.Relaunch - res.RelaunchTime; diff < -ttol || diff > ttol {
		c.fail(end, "trace-derived relaunch time %s, Result reports %s", c.split.Relaunch, res.RelaunchTime)
	}
	// Progress is bounded by the effective-work total, and a completed run
	// must have crossed the finish line at exactly that total (the Result
	// is the authority on the total; the metamorphic checks pin its
	// formula to the paper's equations separately).
	tol := units.Duration(completionTol(res.EffectiveWork))
	if c.maxProgress > res.EffectiveWork+tol {
		c.fail(end, "progress reached %s, above the effective work %s", c.maxProgress, res.EffectiveWork)
	}
	if c.completed {
		if diff := c.completedAt - res.EffectiveWork; diff < -tol || diff > tol {
			c.fail(end, "completed at progress %s, want effective work %s", c.completedAt, res.EffectiveWork)
		}
		if res.End != c.lastTime {
			c.fail(end, "completed at %s but Result ends at %s", c.lastTime, res.End)
		}
		if res.End < res.EffectiveWork-units.Duration(completionTol(res.EffectiveWork)) {
			c.fail(end, "makespan %s below effective work %s", res.End, res.EffectiveWork)
		}
		if eff := res.Efficiency(); eff <= 0 || eff > 1 {
			c.fail(end, "completed run has efficiency %v outside (0, 1]", eff)
		}
	}
}

// completionTol scales the completion tolerance with the work total: a
// relative 1e-9 per accumulated segment is the engine's drift budget.
func completionTol(work units.Duration) float64 {
	t := 1e-9 * float64(work)
	if t < progressEpsilon {
		t = progressEpsilon
	}
	return t
}

// holderCopiesLost mirrors the ReStore strategy's severity mapping: node
// losses destroy one replica holder's copy, catastrophic failures a node
// and its partner — two copies; transients leave memory intact.
func holderCopiesLost(severity int) int {
	switch severity {
	case 2:
		return 1
	case 3:
		return 2
	default:
		return 0
	}
}

func clamp(level int) int {
	if level < 0 {
		return 0
	}
	if level > 3 {
		return 3
	}
	return level
}

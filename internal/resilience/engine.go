package resilience

import (
	"fmt"
	"math"

	"exaresil/internal/core"
	"exaresil/internal/des"
	"exaresil/internal/failures"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// Executor simulates the execution of one application under one resilience
// technique. Executors are stateless between runs and safe to reuse
// sequentially; they are not safe for concurrent use (each Run consumes a
// caller-supplied random source).
type Executor interface {
	// Technique identifies the strategy the executor implements.
	Technique() core.Technique
	// App is the application descriptor the executor simulates.
	App() workload.App
	// PhysicalNodes is the number of machine nodes one run occupies
	// (more than App().Nodes for redundant executions).
	PhysicalNodes() int
	// Viable reports whether the technique can execute the application
	// at all; reason explains a false result (e.g. a non-positive
	// optimal checkpoint period, or a replica set larger than the
	// machine).
	Viable() (ok bool, reason string)
	// Run simulates one execution beginning at start, abandoning it at
	// horizon if unfinished. Randomness (failure times, locations,
	// severities) is drawn from src, so identical sources replay
	// identical runs.
	Run(start, horizon units.Duration, src *rng.Source) Result
	// Clone returns an independent executor for the same application and
	// technique, so parallel trial runners can execute concurrently.
	Clone() Executor
}

// strategy is the technique-specific half of the execution engine. The
// engine owns time, progress, and event bookkeeping; the strategy decides
// checkpoint schedules, restore points, and failure responses.
type strategy interface {
	technique() core.Technique
	// app is the application descriptor being executed.
	app() workload.App
	// physicalNodes is the node population failures strike.
	physicalNodes() int
	// effectiveWork is the technique-inflated total work (Eqs. 7, 8).
	effectiveWork() units.Duration
	// checkpointInterval is the work between checkpoint triggers;
	// +Inf disables checkpointing (used when the failure rate is zero).
	checkpointInterval() units.Duration
	// nextCheckpoint reports the level and cost of the upcoming
	// checkpoint and advances any schedule pattern state.
	nextCheckpoint() (level int, cost units.Duration)
	// onCheckpointDone commits a completed checkpoint of the given level
	// holding the given progress.
	onCheckpointDone(level int, progress units.Duration)
	// onFailure decides the response to a failure striking the
	// application while it holds progress.
	onFailure(f failures.Failure, progress units.Duration) response
	// recoverySpeed is the progress rate multiplier while recomputing
	// previously completed work (1 for everything but Parallel
	// Recovery).
	recoverySpeed() float64
	// reset clears per-run strategy state before a new run.
	reset()
	// clone returns an independent copy for concurrent use.
	clone() strategy
}

// response is a strategy's reaction to a failure.
type response struct {
	// rollback indicates the failure forces a restore; false means the
	// application absorbs the failure (a surviving replica).
	rollback bool
	// restoreTo is the progress of the checkpoint being restored.
	restoreTo units.Duration
	// restoreLevel is the checkpoint level restored from (for stats).
	restoreLevel int
	// restartCost is the time spent restoring before work resumes.
	restartCost units.Duration
}

// phase enumerates the engine's execution phases; they mirror the event
// taxonomy of Section III-A (computation, checkpoints, restarts, recovery —
// recovery being the computing phase below the high-water mark).
type phase int

const (
	phaseComputing phase = iota
	phaseCheckpointing
	phaseRestarting
)

// workEpsilon absorbs floating-point drift when comparing accumulated work
// against triggers, measured in minutes.
const workEpsilon = 1e-9

// Runtime is the execution engine of one goroutine's runs: it drives each
// run of an executor's strategy on a discrete-event simulation, and holds
// its simulator and failure process by value, so the whole machinery is
// one allocation. Its event pool and bound callbacks persist across runs,
// so a warm Runtime runs without allocating. An executor makes its own on
// its first Run; the cluster layer, which builds one executor per
// application and runs them strictly sequentially, shares one through
// AttachRuntime, which makes executor construction cheap. A Runtime is
// single-goroutine like the executors themselves: never share one across
// concurrent workers.
type Runtime struct {
	sim     des.Simulator
	strat   strategy
	proc    failures.Process
	start   units.Duration
	horizon units.Duration

	phase         phase
	progress      units.Duration // work-minutes completed (post-restore view)
	highWater     units.Duration // maximum progress ever reached
	totalWork     units.Duration
	interval      units.Duration // work between checkpoint triggers
	workSinceSync units.Duration // work since last checkpoint or restore

	segStart   units.Duration // wall time the current computing segment began
	segRate    float64        // progress rate of the current segment
	inRework   bool           // current segment recomputes lost work
	pending    *des.Event     // the current phase-end event
	phaseStart units.Duration // wall time the current blocking phase began
	ckptLevel  int            // level of the in-flight checkpoint
	ckptCost   units.Duration // cost of the in-flight checkpoint
	ckptSaved  units.Duration // progress captured at checkpoint start

	ckptRate float64 // compute rate sustained during checkpoints (0 = blocking)

	// Callbacks are bound once per engine and shared by every event they
	// drive; per-event closures were half the allocations of a study.
	// The state a firing needs (the pending failure, the in-flight
	// restart's level and cost) lives in the fields below, which is safe
	// because at most one event of each kind is ever scheduled at a time.
	cbAppStart      des.Callback
	cbSegmentEnd    des.Callback
	cbCheckpointEnd des.Callback
	cbRestartEnd    des.Callback
	cbFailure       des.Callback
	nextFailure     failures.Failure
	restoreLevel    int            // level of the in-flight restore
	restartCost     units.Duration // cost of the in-flight restore

	observer Observer
	metrics  *techMetrics
	res      Result
	done     bool
}

// emit forwards a trace event to the observer, if any.
func (e *Runtime) emit(kind TraceKind, mutate func(*TraceEvent)) {
	if e.observer == nil {
		return
	}
	ev := TraceEvent{Time: e.sim.Now(), Kind: kind, Progress: e.progress}
	if mutate != nil {
		mutate(&ev)
	}
	e.observer(ev)
}

// bind creates the engine's shared event callbacks. Each captures the
// engine pointer once; run reuses them for every subsequent execution, so
// a steady-state run schedules events with zero closure allocations.
func (e *Runtime) bind() {
	e.cbAppStart = func(*des.Simulator) {
		e.emit(TraceStart, nil)
		e.enterComputing()
	}
	e.cbSegmentEnd = func(*des.Simulator) { e.segmentEnd() }
	e.cbCheckpointEnd = func(*des.Simulator) { e.checkpointEnd() }
	e.cbRestartEnd = func(*des.Simulator) { e.restartEnd() }
	e.cbFailure = func(*des.Simulator) { e.handleFailure(e.nextFailure) }
}

// run executes one simulation run of x's strategy, reporting state
// transitions to x's observer when non-nil. The simulator and the failure
// process carry state from the previous run (a warm event pool, a drawn
// clock); both are reset here, and every per-run field is re-initialized
// below, so a warm Runtime and a fresh one replay identically.
func (e *Runtime) run(x *executor, start, horizon units.Duration, src *rng.Source) Result {
	if horizon <= start {
		panic(fmt.Sprintf("resilience: horizon %v not after start %v", horizon, start))
	}
	strat := x.strat
	e.sim.Reset()
	strat.reset()
	e.proc.Reinit(x.model, strat.physicalNodes(), src)
	e.strat = strat
	e.start = start
	e.horizon = horizon
	e.phase = phaseComputing
	e.progress = 0
	e.highWater = 0
	e.totalWork = strat.effectiveWork()
	e.interval = strat.checkpointInterval()
	e.workSinceSync = 0
	e.segStart = 0
	e.segRate = 0
	e.inRework = false
	e.pending = nil
	e.phaseStart = 0
	e.ckptLevel = 0
	e.ckptCost = 0
	e.ckptSaved = 0
	e.ckptRate = x.ckptRate
	e.nextFailure = failures.Failure{}
	e.restoreLevel = 0
	e.restartCost = 0
	e.observer = x.observer
	e.metrics = x.metrics.forTechnique(strat.technique())
	e.res = Result{
		Technique:     strat.technique(),
		Start:         start,
		Baseline:      strat.app().Baseline(),
		EffectiveWork: e.totalWork,
	}
	e.done = false

	e.sim.Schedule(start, "app-start", e.cbAppStart)
	e.scheduleNextFailure()
	e.sim.RunUntil(horizon)

	if !e.done {
		e.res.Completed = false
		e.res.End = horizon
	}
	e.metrics.observeRun(e.res)
	return e.res
}

// scheduleNextFailure arms the next failure event, if it lands before the
// horizon. Failure process times are relative to the run's start.
func (e *Runtime) scheduleNextFailure() {
	f, ok := e.proc.Next()
	if !ok {
		return
	}
	at := e.start + f.Time
	if at > e.horizon {
		return
	}
	// Only one failure is ever armed (the next one is drawn inside
	// handleFailure), so the shared callback can read it from the field.
	e.nextFailure = f
	e.sim.Schedule(at, "failure", e.cbFailure)
}

// enterComputing begins (or resumes) a computing segment, scheduling its
// end at the earliest of: work complete, checkpoint trigger, or the
// high-water mark where the recovery rate drops back to normal speed.
func (e *Runtime) enterComputing() {
	if e.done {
		return
	}
	e.phase = phaseComputing
	e.segStart = e.sim.Now()

	rate := 1.0
	e.inRework = e.progress < e.highWater-workEpsilon
	if e.inRework {
		rate = e.strat.recoverySpeed()
	}
	e.segRate = rate

	dist := e.totalWork - e.progress // work to completion
	if e.interval < units.Duration(math.Inf(1)) {
		if toCkpt := e.interval - e.workSinceSync; toCkpt < dist {
			dist = toCkpt
		}
	}
	if e.inRework {
		if toHW := e.highWater - e.progress; toHW < dist {
			dist = toHW
		}
	}
	dist = max(dist, 0)
	e.pending = e.sim.After(units.Duration(float64(dist)/rate), "segment-end", e.cbSegmentEnd)
}

// materialize folds the progress of the current segment into the engine
// state up to the present moment. Computing segments always accrue; with a
// positive semi-blocking rate, checkpointing segments accrue too (at that
// rate), overlapping work with the checkpoint write.
func (e *Runtime) materialize() {
	if e.phase == phaseRestarting {
		return
	}
	if e.phase == phaseCheckpointing && e.segRate <= 0 {
		return
	}
	now := e.sim.Now()
	delta := units.Duration(float64(now-e.segStart) * e.segRate)
	e.progress += delta
	e.workSinceSync += delta
	if e.phase == phaseCheckpointing {
		e.res.OverlappedWork += delta
	} else if e.inRework {
		e.res.ReworkTime += now - e.segStart
	}
	if e.progress > e.highWater {
		e.highWater = e.progress
	}
	e.segStart = now
}

// segmentEnd fires when a computing segment reaches its scheduled boundary.
func (e *Runtime) segmentEnd() {
	e.materialize()
	switch {
	case e.progress >= e.totalWork-workEpsilon:
		e.done = true
		e.res.Completed = true
		e.res.End = e.sim.Now()
		e.emit(TraceComplete, nil)
		e.sim.Stop()
	case e.interval < units.Duration(math.Inf(1)) && e.workSinceSync >= e.interval-workEpsilon:
		e.startCheckpoint()
	default:
		// Crossed the high-water mark: resume at normal speed.
		e.enterComputing()
	}
}

// startCheckpoint begins a blocking checkpoint.
func (e *Runtime) startCheckpoint() {
	level, cost := e.strat.nextCheckpoint()
	e.phase = phaseCheckpointing
	e.phaseStart = e.sim.Now()
	e.ckptLevel = level
	e.ckptCost = cost
	e.ckptSaved = e.progress
	e.segStart = e.sim.Now()
	e.segRate = e.ckptRate
	e.inRework = false
	e.emit(TraceCheckpointStart, func(ev *TraceEvent) { ev.Level = level })
	e.pending = e.sim.After(cost, "checkpoint-end", e.cbCheckpointEnd)
}

// checkpointEnd commits a completed checkpoint. The committed state is the
// one captured when the checkpoint began: work overlapped with the write
// (semi-blocking mode) is real progress but is not part of this snapshot.
func (e *Runtime) checkpointEnd() {
	e.materialize()
	e.strat.onCheckpointDone(e.ckptLevel, e.ckptSaved)
	e.res.Checkpoints[clampLevel(e.ckptLevel)]++
	e.res.CheckpointTime += e.ckptCost
	// Work between triggers counts from the snapshot, so overlapped work
	// stays on the clock toward the next checkpoint.
	e.workSinceSync = e.progress - e.ckptSaved
	e.emit(TraceCheckpointEnd, func(ev *TraceEvent) { ev.Level = e.ckptLevel })
	e.enterComputing()
}

// handleFailure reacts to a failure event.
func (e *Runtime) handleFailure(f failures.Failure) {
	defer e.scheduleNextFailure()
	if e.done {
		return
	}
	e.materialize()
	e.res.Failures++
	e.metrics.observeFailure(int(f.Severity))

	resp := e.strat.onFailure(f, e.progress)
	e.emit(TraceFailure, func(ev *TraceEvent) {
		ev.Severity = f.Severity
		ev.Rollback = resp.rollback
	})
	if !resp.rollback {
		// Absorbed (a surviving replica). Pending phase events remain
		// valid: nothing about the execution rate changed.
		return
	}

	e.sim.Cancel(e.pending)
	e.res.Rollbacks++
	// Wall time sunk into an interrupted blocking phase still belongs to
	// that phase in the makespan decomposition.
	switch e.phase {
	case phaseCheckpointing:
		e.res.CheckpointTime += e.sim.Now() - e.phaseStart
	case phaseRestarting:
		e.res.RestartTime += e.sim.Now() - e.phaseStart
		if e.restoreLevel == 0 {
			e.res.RelaunchTime += e.sim.Now() - e.phaseStart
		}
	}
	if lost := e.progress - resp.restoreTo; lost > 0 {
		e.res.LostWork += lost
	}
	e.progress = resp.restoreTo
	e.workSinceSync = 0
	e.phase = phaseRestarting
	e.phaseStart = e.sim.Now()
	// At most one restore is in flight; a later failure cancels this event
	// and overwrites the fields before rescheduling.
	e.restoreLevel = resp.restoreLevel
	e.restartCost = resp.restartCost
	e.pending = e.sim.After(resp.restartCost, "restart-end", e.cbRestartEnd)
}

// restartEnd fires when a restore completes and computation resumes.
func (e *Runtime) restartEnd() {
	e.res.RestartTime += e.restartCost
	if e.restoreLevel == 0 {
		e.res.RelaunchTime += e.restartCost
	}
	e.emit(TraceRestartEnd, func(ev *TraceEvent) { ev.Level = e.restoreLevel })
	e.enterComputing()
}

// clampLevel maps a checkpoint level into the Result's histogram index.
func clampLevel(level int) int {
	if level < 1 {
		return 1
	}
	if level > 3 {
		return 3
	}
	return level
}

package resilience

import (
	"fmt"
	"math"

	"exaresil/internal/des"
	"exaresil/internal/failures"
	"exaresil/internal/rng"
	"exaresil/internal/units"
)

// strategy is the technique-specific half of the execution engine: the
// decisions of one technique, over parameters New fixed. The engine owns
// time, progress, and event bookkeeping; the strategy decides checkpoint
// levels, restore points, and failure responses, acting on the run state
// the engine hands it, so one strategy serves any number of concurrent
// runs.
type strategy interface {
	// nextCheckpoint reports the level and cost of the upcoming
	// checkpoint and advances any schedule pattern state.
	nextCheckpoint(st *runState) (level int, cost units.Duration)
	// onCheckpointDone commits a completed checkpoint of the given level
	// holding the given progress.
	onCheckpointDone(st *runState, level int, progress units.Duration)
	// onFailure decides the response to a failure striking the
	// application.
	onFailure(st *runState, f failures.Failure) response
}

// runState is everything a strategy's decisions change during one run. It
// lives in the Runtime, which resets it at the start of every run.
type runState struct {
	saved [4]units.Duration // newest committed progress per checkpoint level (1-3)
	has   [4]bool           // whether a checkpoint is committed at each level

	counter int // multilevel's completed-checkpoint counter driving the pattern
	lost    int // ReStore's replica holders destroyed since the last commit

	// failedIn holds redundancy's per-physical-node failure marks: the
	// generation in which each node last failed. A node counts as failed
	// only if its entry equals gen, so bumping gen clears every mark in
	// O(1), and a larger executor's stale marks never count for a smaller
	// one.
	failedIn []uint64
	gen      uint64

	repairs []repair // TeaMPI's re-syncs in flight
}

// reset clears the run state for a new run of an executor whose failure
// marks cover marks physical nodes.
func (st *runState) reset(marks int) {
	st.saved = [4]units.Duration{}
	st.has = [4]bool{}
	st.counter, st.lost = 0, 0
	if len(st.failedIn) < marks {
		st.failedIn = make([]uint64, marks)
	}
	st.gen++
	st.repairs = st.repairs[:0]
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

// Runtime is the execution engine of one goroutine's runs, and the only
// thing a run writes: it holds by value the discrete-event simulator, the
// failure process, the engine state and the strategy's run state, so the
// whole machinery is one allocation. Its event pool, bound callbacks and
// run-state buffers persist across runs, so a warm Runtime runs without
// allocating. Executors are read-only, so any number of Runtimes may run
// one Executor at once; a Runtime itself is single-goroutine: never share
// one across concurrent workers.
type Runtime struct {
	sim     des.Simulator
	proc    failures.Process
	st      runState
	strat   strategy
	start   units.Duration
	horizon units.Duration

	phase         phase
	progress      units.Duration // work-minutes completed (post-restore view)
	highWater     units.Duration // maximum progress ever reached
	totalWork     units.Duration
	interval      units.Duration // work between checkpoint triggers
	workSinceSync units.Duration // work since last checkpoint or restore
	speed         float64        // progress rate while recomputing lost work

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

	// Observer, when non-nil, receives every trace event of the
	// Runtime's runs. The Ideal baseline and blocked runs emit none.
	Observer Observer

	metrics *Metrics
	tm      *techMetrics // metrics' series for the current run's technique
	res     Result
	done    bool
}

// cacheLinePad is one cache line of padding: 64 bytes, the line size of
// amd64 and of most arm64 cores.
type cacheLinePad [64]byte

// paddedBox holds a value between two cacheLinePads.
type paddedBox[T any] struct {
	_ cacheLinePad
	v T
	_ cacheLinePad
}

// padded returns a copy of v on cache lines of its own: the copy sits
// between two cacheLinePads in one allocation, so no other heap object
// shares a line with it, whatever its size and fields and wherever the
// allocator puts it. Go's allocator packs small objects side by side, so
// two things need it (DESIGN.md §2.1): each trial worker's Runtime, which
// the worker writes on every event, and each strategy, whose few words of
// parameters every worker reads on every checkpoint and failure, so that
// none of the small objects a worker writes (its pooled des events) lands
// on their line.
func padded[T any](v T) *T { return &(&paddedBox[T]{v: v}).v }

// NewRuntime creates a runtime on cache lines of its own, recording its
// runs in m's series (nil m records nothing).
func NewRuntime(m *Metrics) *Runtime {
	rt := padded(Runtime{sim: *des.NewPooled(), metrics: m})
	rt.sim.SetMetrics(m.desMetrics())
	rt.bind()
	return rt
}

// emit forwards a trace event to the observer, if any.
func (e *Runtime) emit(kind TraceKind, mutate func(*TraceEvent)) {
	if e.Observer == nil {
		return
	}
	ev := TraceEvent{Time: e.sim.Now(), Kind: kind, Progress: e.progress}
	if mutate != nil {
		mutate(&ev)
	}
	e.Observer(ev)
}

// bind creates the engine's shared event callbacks. Each captures the
// engine pointer once; Run reuses them for every subsequent execution, so
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

// Run simulates one execution of x beginning at start, abandoning it at
// horizon if unfinished. Randomness (failure times, locations,
// severities) is drawn from src, so identical sources replay identical
// runs. The Ideal baseline completes after exactly its baseline time (or
// is cut off at the horizon), and a non-viable executor's run reports
// Blocked; neither reaches the engine, so they emit no trace event and
// record no metric.
//
// The simulator and the failure process carry state from the previous run
// (a warm event pool, a drawn clock); both are reset here, and every
// per-run field is re-initialized below, so a warm Runtime and a fresh one
// replay identically.
func (e *Runtime) Run(x *Executor, start, horizon units.Duration, src *rng.Source) Result {
	res := Result{
		Technique:     x.tech,
		Start:         start,
		Baseline:      x.app.Baseline(),
		EffectiveWork: x.work,
	}
	switch {
	case x.strat == nil:
		if end := start + res.Baseline; end > horizon {
			res.End = horizon
		} else {
			res.Completed, res.End = true, end
		}
		return res
	case !x.viable:
		res.Blocked, res.End = x.reason, start
		return res
	}
	if horizon <= start {
		panic(fmt.Sprintf("resilience: horizon %v not after start %v", horizon, start))
	}
	e.sim.Reset()
	e.st.reset(x.marks)
	e.proc.Reinit(x.model, x.phys, src)
	e.strat = x.strat
	e.start = start
	e.horizon = horizon
	e.phase = phaseComputing
	e.progress = 0
	e.highWater = 0
	e.totalWork = x.work
	e.interval = x.interval
	e.workSinceSync = 0
	e.speed = x.speed
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
	e.tm = e.metrics.forTechnique(x.tech)
	e.res = res
	e.done = false

	e.sim.Schedule(start, "app-start", e.cbAppStart)
	e.scheduleNextFailure()
	e.sim.RunUntil(horizon)

	if !e.done {
		e.res.Completed = false
		e.res.End = horizon
	}
	e.tm.observeRun(e.res)
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
		rate = e.speed
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
	level, cost := e.strat.nextCheckpoint(&e.st)
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
	e.strat.onCheckpointDone(&e.st, e.ckptLevel, e.ckptSaved)
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
	e.tm.observeFailure(int(f.Severity))

	resp := e.strat.onFailure(&e.st, f)
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

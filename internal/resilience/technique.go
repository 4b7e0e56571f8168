package resilience

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/des"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// Config tunes the technique parameters that the paper inherits from the
// works each technique is modeled on.
type Config struct {
	// RecoverySpeedup is phi, the factor by which Parallel Recovery
	// accelerates the recomputation of a failed node's lost work by
	// spreading it across helper nodes. Meneses et al. observe recovery
	// speedups around the object-virtualization ratio; 8 is a
	// representative value (DESIGN.md §5).
	RecoverySpeedup float64
	// Multilevel bounds the multilevel schedule optimizer's search.
	Multilevel MultilevelConfig
	// PeriodScale multiplies every technique's checkpoint interval,
	// for sensitivity studies around the Daly/optimized operating point;
	// 1 (or 0, treated as 1) is the paper's behaviour.
	PeriodScale float64
	// CheckpointComputeRate is the fraction of normal compute progress an
	// application sustains while a checkpoint is being written. The paper
	// models blocking checkpoints (0, the default); positive values model
	// the semi-blocking schemes of its related work (Coti et al., Ni et
	// al.): the checkpoint still takes its full cost in wall time, but
	// computation overlaps it at this reduced rate. Must be < 1.
	CheckpointComputeRate float64
	// ReStoreDegree is k, the number of in-memory replicas each
	// In-Memory Replicated Checkpoint keeps on peer nodes (ReStore,
	// arXiv:2203.01107). Zero means the default of 2; negative degrees
	// (an effective degree below 1) are rejected.
	ReStoreDegree int
	// TeamSyncPenalty is s, the steady-state synchronization overhead of
	// Lightweight Replication (TeaMPI, arXiv:2005.12091): the lagging
	// team's heartbeat and sync traffic stretches the per-step
	// communication term by (1 + s). Must be in [0, 1); at s >= 1 the
	// scheme would cost more than full redundancy's lockstep duplication,
	// outside the model's validity.
	TeamSyncPenalty float64
}

// DefaultConfig returns the parameter values used throughout the paper's
// studies.
func DefaultConfig() Config {
	return Config{
		RecoverySpeedup: 8,
		Multilevel:      DefaultMultilevelConfig(),
		PeriodScale:     1,
		ReStoreDegree:   2,
		TeamSyncPenalty: 0.05,
	}
}

// ReStoreReplicas resolves the in-memory replica degree, treating the zero
// value as the default of 2 (mirroring periodScale's zero handling).
func (c Config) ReStoreReplicas() int {
	if c.ReStoreDegree == 0 {
		return 2
	}
	return c.ReStoreDegree
}

// periodScale resolves the interval multiplier, treating the zero value
// as the paper default of 1.
func (c Config) periodScale() float64 {
	if c.PeriodScale == 0 {
		return 1
	}
	return c.PeriodScale
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.RecoverySpeedup < 1 {
		return fmt.Errorf("resilience: recovery speedup %v must be >= 1", c.RecoverySpeedup)
	}
	if c.PeriodScale < 0 {
		return fmt.Errorf("resilience: period scale %v must be positive", c.PeriodScale)
	}
	if c.CheckpointComputeRate < 0 || c.CheckpointComputeRate >= 1 {
		return fmt.Errorf("resilience: checkpoint compute rate %v outside [0, 1)", c.CheckpointComputeRate)
	}
	if c.ReStoreDegree < 0 {
		return fmt.Errorf("resilience: ReStore replica degree %d must be >= 1 (0 selects the default of 2)", c.ReStoreDegree)
	}
	if c.TeamSyncPenalty < 0 || c.TeamSyncPenalty >= 1 {
		return fmt.Errorf("resilience: team sync penalty %v outside [0, 1)", c.TeamSyncPenalty)
	}
	return c.Multilevel.Validate()
}

// executor adapts a strategy to the Executor interface, holding the pieces
// shared by all techniques: the failure model, the occupied node count, and
// the viability verdict computed at construction.
type executor struct {
	strat    strategy
	model    *failures.Model
	phys     int
	viable   bool
	reason   string
	ckptRate float64
	observer Observer
	metrics  *Metrics

	// rt is the engine the executor's runs execute on. The first Run
	// makes it, on the goroutine that runs the executor, and later runs
	// reuse it; Clone leaves it nil, so a parallel worker's clone makes
	// its own. AttachRuntime sets it instead to a Runtime shared with
	// other strictly sequential executors.
	rt *Runtime
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
// allocator puts it. appsim allocates the trial workers' strategies one
// after another, and Go's allocator packs small objects side by side, so
// a strategy that each worker writes on every checkpoint can need it: the
// multilevel strategy ran a paper-scale cell about 1.6x slower on two
// workers without it, while no other strategy measured a gain from it
// (DESIGN.md §2.1).
func padded[T any](v T) *T { return &(&paddedBox[T]{v: v}).v }

// NewRuntime creates a runtime, attaching m's engine-simulator series (nil
// m leaves the simulator uninstrumented).
func NewRuntime(m *Metrics) *Runtime {
	rt := &Runtime{sim: *des.NewPooled()}
	rt.sim.SetMetrics(m.desMetrics())
	rt.bind()
	return rt
}

// AttachRuntime points the executor at a shared Runtime, reporting whether
// the executor supports it (the Ideal executor does not — it never
// simulates). The executor then schedules all its runs on rt.
func AttachRuntime(x Executor, rt *Runtime) bool {
	e, ok := x.(*executor)
	if ok {
		e.rt = rt
	}
	return ok
}

// Technique implements Executor.
func (x *executor) Technique() core.Technique { return x.strat.technique() }

// App implements Executor.
func (x *executor) App() workload.App { return x.strat.app() }

// PhysicalNodes implements Executor.
func (x *executor) PhysicalNodes() int { return x.phys }

// Viable implements Executor.
func (x *executor) Viable() (bool, string) { return x.viable, x.reason }

// Clone implements Executor.
func (x *executor) Clone() Executor {
	return &executor{
		strat:    x.strat.clone(),
		model:    x.model,
		phys:     x.phys,
		viable:   x.viable,
		reason:   x.reason,
		ckptRate: x.ckptRate,
		// Metrics are shared, not copied: the series are atomic, so every
		// clone of a parallel study aggregates into the same bundle.
		metrics: x.metrics,
	}
}

// Run implements Executor.
func (x *executor) Run(start, horizon units.Duration, src *rng.Source) Result {
	if !x.viable {
		return Result{
			Technique:     x.strat.technique(),
			Blocked:       x.reason,
			Start:         start,
			End:           start,
			Baseline:      x.strat.app().Baseline(),
			EffectiveWork: x.strat.effectiveWork(),
		}
	}
	if x.rt == nil {
		x.rt = NewRuntime(x.metrics)
	}
	return x.rt.run(x, start, horizon, src)
}

// New constructs the executor for technique t running app on the machine
// cfg under the failure model. It returns an error only for malformed
// inputs; a technique that is well-formed but cannot execute the
// application (e.g. redundancy needing more nodes than the machine has)
// yields a non-viable executor whose runs report Blocked.
func New(t core.Technique, app workload.App, cfg machine.Config, model *failures.Model, opts Config) (Executor, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("resilience: nil failure model")
	}
	if app.Nodes > cfg.Nodes {
		return nil, fmt.Errorf("resilience: app needs %d nodes but machine %q has %d",
			app.Nodes, cfg.Name, cfg.Nodes)
	}

	costs := ComputeCosts(app, cfg)
	scale := opts.periodScale()
	// pfs is Checkpoint Restart's rollback: PFS checkpoints, restores and
	// relaunches, and no slowdown.
	pfs := rollback{tech: t, application: app, level: 3, ckptCost: costs.PFS, restoreCost: costs.PFS,
		relaunchCost: costs.PFS, work: app.Baseline(), speed: 1}
	var x *executor
	switch t {
	case core.Ideal:
		return NewIdeal(app), nil
	case core.CheckpointRestart:
		x = newRollback(pfs, model, scale)
	case core.MultilevelCheckpoint:
		x = newMultilevel(app, costs, model, opts.Multilevel, scale)
	case core.ParallelRecovery:
		x = newRollback(rollback{tech: t, application: app, level: 2, ckptCost: costs.L2, restoreCost: costs.L2,
			relaunchCost: costs.L2, work: MessageLoggingBaseline(app), speed: opts.RecoverySpeedup}, model, scale)
	case core.PartialRedundancy:
		x = newRedundancy(app, costs, model, 1.5, cfg.Nodes, scale)
	case core.FullRedundancy:
		x = newRedundancy(app, costs, model, 2.0, cfg.Nodes, scale)
	case core.InMemoryReplicatedCheckpoint:
		// With no peers to hold the replicas (N_a <= k) ReStore is
		// Checkpoint Restart exactly; otherwise its checkpoints and restores
		// move to peer RAM, and only relaunches still read the PFS.
		if k := opts.ReStoreReplicas(); app.Nodes > k {
			pfs.level, pfs.degree = 2, k
			pfs.ckptCost, pfs.restoreCost = ReplicatedCheckpointCost(costs, k), ReplicatedRestoreCost(costs)
		}
		x = newRollback(pfs, model, scale)
	case core.LightweightReplication:
		x = newTeamReplication(app, costs, model, opts.TeamSyncPenalty, cfg.Nodes)
	default:
		return nil, fmt.Errorf("resilience: no executor for technique %v", t)
	}
	x.ckptRate = opts.CheckpointComputeRate
	return x, nil
}

package resilience

import (
	"fmt"
	"math"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
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

// Executor is the read-only description of one application under one
// resilience technique: New fills in everything a run reads and nothing it
// writes, so any number of goroutines may run one Executor at once, each
// on its own Runtime (Runtime.Run).
type Executor struct {
	tech  core.Technique
	app   workload.App
	model *failures.Model
	phys  int            // physical nodes a run occupies, which failures strike
	work  units.Duration // technique-inflated total work (Eqs. 7, 8)
	// interval is the period-scaled work between checkpoint triggers;
	// +Inf disables checkpointing.
	interval units.Duration
	speed    float64 // progress rate while recomputing lost work (phi for Parallel Recovery)
	ckptRate float64 // compute rate sustained during checkpoints (0 = blocking)
	marks    int     // per-node failure marks a run needs (redundancy's physical nodes)
	viable   bool
	reason   string
	strat    strategy // the technique's decisions; nil for the Ideal baseline
}

// Technique identifies the technique the executor simulates.
func (x *Executor) Technique() core.Technique { return x.tech }

// App is the application descriptor the executor simulates.
func (x *Executor) App() workload.App { return x.app }

// PhysicalNodes is the number of machine nodes one run occupies (more than
// App().Nodes for redundant executions).
func (x *Executor) PhysicalNodes() int { return x.phys }

// Viable reports whether the technique can execute the application at
// all; reason explains a false result (e.g. a non-positive optimal
// checkpoint period, or a replica set larger than the machine).
func (x *Executor) Viable() (ok bool, reason string) { return x.viable, x.reason }

// block marks the executor non-viable for the given reason.
func (x *Executor) block(reason string) { x.viable, x.reason = false, reason }

// New constructs the executor for technique t running app on the machine
// cfg under the failure model. It returns an error only for malformed
// inputs; a technique that is well-formed but cannot execute the
// application (e.g. redundancy needing more nodes than the machine has)
// yields a non-viable executor whose runs report Blocked. The Ideal
// baseline is the executor with no strategy: the failure-free,
// overhead-free run of the resource-management study (Figure 4).
func New(t core.Technique, app workload.App, cfg machine.Config, model *failures.Model, opts Config) (*Executor, error) {
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

	x := &Executor{
		tech:     t,
		app:      app,
		model:    model,
		phys:     app.Nodes,
		work:     app.Baseline(),
		interval: units.Duration(math.Inf(1)),
		speed:    1,
		ckptRate: opts.CheckpointComputeRate,
		viable:   true,
	}
	costs := ComputeCosts(app, cfg)
	scale := opts.periodScale()
	// pfs is Checkpoint Restart's rollback: PFS checkpoints, restores and
	// relaunches.
	pfs := rollback{level: 3, ckptCost: costs.PFS, restoreCost: costs.PFS, relaunchCost: costs.PFS}
	switch t {
	case core.Ideal:
	case core.CheckpointRestart:
		x.withRollback(pfs, scale)
	case core.MultilevelCheckpoint:
		x.withMultilevel(costs, opts.Multilevel, scale)
	case core.ParallelRecovery:
		x.work, x.speed = MessageLoggingBaseline(app), opts.RecoverySpeedup
		x.withRollback(rollback{level: 2, ckptCost: costs.L2, restoreCost: costs.L2, relaunchCost: costs.L2}, scale)
	case core.PartialRedundancy:
		x.withRedundancy(costs, 1.5, cfg.Nodes, scale)
	case core.FullRedundancy:
		x.withRedundancy(costs, 2.0, cfg.Nodes, scale)
	case core.InMemoryReplicatedCheckpoint:
		// With no peers to hold the replicas (N_a <= k) ReStore is
		// Checkpoint Restart exactly; otherwise its checkpoints and restores
		// move to peer RAM, and only relaunches still read the PFS.
		if k := opts.ReStoreReplicas(); app.Nodes > k {
			pfs.level, pfs.degree = 2, k
			pfs.ckptCost, pfs.restoreCost = ReplicatedCheckpointCost(costs, k), ReplicatedRestoreCost(costs)
		}
		x.withRollback(pfs, scale)
	case core.LightweightReplication:
		x.withTeamReplication(costs, opts.TeamSyncPenalty, cfg.Nodes)
	default:
		return nil, fmt.Errorf("resilience: no executor for technique %v", t)
	}
	return x, nil
}

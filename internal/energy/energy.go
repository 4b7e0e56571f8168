// Package energy adds energy accounting to simulated executions.
//
// The paper's companion study (Dauwe et al., "A performance and energy
// comparison of fault tolerance techniques for exascale computing
// systems", 2016) compares the same techniques by energy as well as time,
// and the paper itself leans on the energy argument for message logging:
// during recovery "only the failed system node needs to perform
// re-computation, and the rest of the system can remain idle". This
// package reproduces that accounting: a per-node power model with
// compute, I/O, and idle states, applied to the phase breakdown a
// resilience.Result already carries.
package energy

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/resilience"
	"exaresil/internal/units"
)

// Watts is electrical power.
type Watts float64

// Joules is electrical energy.
type Joules float64

// KWh reports the energy in kilowatt-hours.
func (j Joules) KWh() float64 { return float64(j) / 3.6e6 }

// MWh reports the energy in megawatt-hours.
func (j Joules) MWh() float64 { return float64(j) / 3.6e9 }

// String renders the energy at a readable magnitude.
func (j Joules) String() string {
	switch {
	case j >= 3.6e9:
		return fmt.Sprintf("%.3gMWh", j.MWh())
	case j >= 3.6e6:
		return fmt.Sprintf("%.3gkWh", j.KWh())
	default:
		return fmt.Sprintf("%.4gJ", float64(j))
	}
}

// spent reports the energy of n nodes drawing p for d.
func spent(n int, p Watts, d units.Duration) Joules {
	return Joules(float64(n) * float64(p) * d.Seconds())
}

// PowerModel is the per-node power draw in each execution state.
type PowerModel struct {
	// Compute is the draw while executing application work.
	Compute Watts
	// IO is the draw while writing or reading checkpoints (stalled on
	// the memory system, network, or parallel file system).
	IO Watts
	// Idle is the draw of a node waiting for the rest of the system.
	Idle Watts
}

// Default returns the repository's projected exascale node power model.
// The Sunway TaihuLight draws ~375 W per node under load; the projected
// node quadruples the core count on a newer process, so the model assumes
// 800 W at full compute, 350 W while stalled on checkpoint I/O, and 200 W
// idle. The studies only depend on the ordering Compute > IO > Idle; the
// absolute levels are configuration.
func Default() PowerModel {
	return PowerModel{Compute: 800, IO: 350, Idle: 200}
}

// Validate reports whether the power model is usable.
func (p PowerModel) Validate() error {
	if p.Compute <= 0 || p.IO <= 0 || p.Idle <= 0 {
		return fmt.Errorf("energy: power levels must be positive, got %+v", p)
	}
	if p.Compute < p.IO || p.IO < p.Idle {
		return fmt.Errorf("energy: expected Compute >= IO >= Idle, got %+v", p)
	}
	return nil
}

// Breakdown decomposes one execution's energy by phase.
type Breakdown struct {
	// Compute is the energy of useful (first-time) work.
	Compute Joules
	// Rework is the energy spent recomputing lost work, including the
	// idle draw of nodes waiting out another node's recovery.
	Rework Joules
	// Checkpoint and Restart are the I/O phases.
	Checkpoint, Restart Joules
	// Total is the sum.
	Total Joules
}

// Overhead reports the fraction of the total energy that is not useful
// compute: (Total - Compute) / Total.
func (b Breakdown) Overhead() float64 {
	if b.Total <= 0 {
		return 0
	}
	return float64(b.Total-b.Compute) / float64(b.Total)
}

// Account computes the energy of a completed (or partial) execution.
//
// nodes is the number of physical nodes the run occupied
// (Executor.PhysicalNodes: more than App().Nodes for redundancy).
// recoverySpeedup is Parallel Recovery's phi (ignored for other
// techniques): during its rework phase phi nodes compute while the rest
// idle, which is where message logging's energy advantage comes from.
func Account(res resilience.Result, nodes int, recoverySpeedup float64, pm PowerModel) (Breakdown, error) {
	if nodes <= 0 {
		return Breakdown{}, fmt.Errorf("energy: node count %d must be positive", nodes)
	}
	if err := pm.Validate(); err != nil {
		return Breakdown{}, err
	}

	var b Breakdown
	computeTime := res.End - res.ReworkTime - res.CheckpointTime - res.RestartTime
	if computeTime < 0 {
		computeTime = 0
	}
	b.Compute = spent(nodes, pm.Compute, computeTime)
	b.Checkpoint = spent(nodes, pm.IO, res.CheckpointTime)
	b.Restart = spent(nodes, pm.IO, res.RestartTime)

	if res.Technique == core.ParallelRecovery && recoverySpeedup >= 1 {
		// Only the helpers replaying the failed node's work burn compute
		// power; everyone else waits at idle draw.
		busy := int(recoverySpeedup)
		if busy > nodes {
			busy = nodes
		}
		b.Rework = spent(busy, pm.Compute, res.ReworkTime) +
			spent(nodes-busy, pm.Idle, res.ReworkTime)
	} else {
		b.Rework = spent(nodes, pm.Compute, res.ReworkTime)
	}

	b.Total = b.Compute + b.Rework + b.Checkpoint + b.Restart
	return b, nil
}

// IdealEnergy reports the energy of a failure-free, overhead-free
// execution of the given baseline on the given nodes: the denominator of
// energy-efficiency comparisons.
func IdealEnergy(baseline units.Duration, nodes int, pm PowerModel) Joules {
	return spent(nodes, pm.Compute, baseline)
}

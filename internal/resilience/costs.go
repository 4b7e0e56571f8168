// Package resilience implements the four HPC resilience techniques the
// paper compares — Checkpoint Restart, Multilevel Checkpointing, Parallel
// Recovery (message logging), and Partial/Full Redundancy — as event-driven
// executors that simulate a single application's execution in the presence
// of failures.
//
// The package is organized as:
//
//   - costs.go: the paper's cost equations (Eqs. 3, 5, 6) and technique
//     overhead models (Eqs. 7, 8);
//   - daly.go: the first-order optimal checkpoint period (Eq. 4);
//   - engine.go: the shared event-driven execution state machine;
//   - one file per strategy implementing the engine's strategy interface:
//     rollback.go (Checkpoint Restart, Parallel Recovery and ReStore),
//     multilevel.go, redundancy.go and teampi.go;
//   - mlopt.go: the multilevel checkpoint schedule optimizer.
package resilience

import (
	"math"

	"exaresil/internal/machine"
	"exaresil/internal/network"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// Costs holds the checkpoint and restart costs of one application on one
// machine, evaluated from the paper's cost equations. Checkpoint and
// restart times are assumed symmetric throughout, as in Section IV-C.
type Costs struct {
	// PFS is T_C_PFS (Eq. 3): the time to write (or read) the
	// application's full checkpoint through the network switches to the
	// parallel file system,
	//
	//	T_C_PFS = (N_m / B_N) * (N_a / N_S).
	PFS units.Duration
	// L1 is T_C_L1 (Eq. 5): a checkpoint to the node's local RAM,
	//
	//	T_C_L1 = N_m / B_M.
	L1 units.Duration
	// L2 is T_C_L2 (Eq. 6): a checkpoint exchanged with a partner node,
	//
	//	T_C_L2 = 2 * (T_C_L1 + L + N_m / B_M),
	//
	// the factor of two covering the symmetric exchange of partner data.
	L2 units.Duration
}

// ComputeCosts evaluates the cost equations for app on cfg using the
// machine's interconnect model.
func ComputeCosts(app workload.App, cfg machine.Config) Costs {
	net := network.FromMachine(cfg)
	perNode := app.Class.MemoryPerNode
	return Costs{
		PFS: net.BulkTransferTime(perNode, app.Nodes),
		L1:  cfg.Node.MemoryBandwidth.Transfer(perNode),
		L2:  net.ExchangeTime(perNode, cfg.Node.MemoryBandwidth),
	}
}

// CostForLevel reports the checkpoint (and restore) cost of a multilevel
// checkpoint at the given level, 1-based.
func (c Costs) CostForLevel(level int) units.Duration {
	switch level {
	case 1:
		return c.L1
	case 2:
		return c.L2
	default:
		return c.PFS
	}
}

// MessageLoggingSlowdown is mu = 1 + T_C/10 (Section IV-D): the execution
// inflation an application suffers from logging every message it sends.
// The resulting range (1.0 for communication-free applications to 1.075 for
// T_C = 0.75) matches the slowdowns reported by Meneses et al.
func MessageLoggingSlowdown(class workload.Class) float64 {
	return 1 + class.CommFraction/10
}

// MessageLoggingBaseline is Eq. 7: T_B' = mu * T_S * (T_W + T_C), the
// application's failure-free execution time under message logging.
func MessageLoggingBaseline(app workload.App) units.Duration {
	return units.Duration(MessageLoggingSlowdown(app.Class) * float64(app.Baseline()))
}

// RedundantBaseline is Eq. 8: T_B' = T_S * (T_W + r * T_C), the
// application's failure-free execution time when every message is
// duplicated across a redundancy degree of r.
func RedundantBaseline(app workload.App, r float64) units.Duration {
	perStep := app.Class.WorkFraction() + r*app.Class.CommFraction
	return units.Duration(float64(app.TimeSteps) * perStep * float64(units.Minute))
}

// ReplicatedCheckpointCost is the time to replicate one checkpoint across
// k peer-RAM holders, ReStore-style (arXiv:2203.01107): k one-way partner
// copies, each half of the symmetric L2 exchange of Eq. 6.
func ReplicatedCheckpointCost(c Costs, k int) units.Duration {
	if k < 1 {
		k = 1
	}
	return units.Duration(float64(k)) * c.L2 / 2
}

// ReplicatedRestoreCost is the time to scatter-read one surviving in-memory
// replica back onto the failed node's replacement: a single one-way copy.
func ReplicatedRestoreCost(c Costs) units.Duration { return c.L2 / 2 }

// TeamReplicationBaseline is the failure-free execution time under
// TeaMPI-style lightweight replication (arXiv:2005.12091): the teams run
// decoupled, so computation is not duplicated, but the lagging team's
// heartbeat and synchronization traffic stretches the communication term
// by (1 + s):
//
//	T_B' = T_S * (T_W + (1 + s) * T_C).
//
// For s < 1 this is strictly below full redundancy's Eq. 8 stretch of
// T_S * (T_W + 2 * T_C) on every communicating class, which is the scheme's
// whole point.
func TeamReplicationBaseline(app workload.App, s float64) units.Duration {
	perStep := app.Class.WorkFraction() + (1+s)*app.Class.CommFraction
	return units.Duration(float64(app.TimeSteps) * perStep * float64(units.Minute))
}

// RedundantNodes reports the physical node count an application of N_a
// virtual nodes occupies at redundancy degree r (rounded up: a degree of
// 1.5 on 3 virtual nodes still needs 5 physical nodes).
func RedundantNodes(virtualNodes int, r float64) int {
	phys := int(math.Ceil(float64(virtualNodes)*r - 1e-9))
	if phys < virtualNodes {
		phys = virtualNodes
	}
	return phys
}

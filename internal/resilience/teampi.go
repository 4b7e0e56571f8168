package resilience

import (
	"fmt"
	"math"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// teamReplication implements TeaMPI-style lightweight replication (Samfass
// et al., arXiv:2005.12091), a post-2017 extension of the paper's menu: the
// application runs as two decoupled teams (r = 2 physical nodes per virtual
// node, like full redundancy), but the teams are not in message lockstep —
// only a heartbeat keeps them in touch, so the steady state pays a small
// synchronization penalty s on the communication term instead of Eq. 8's
// full 2x duplication.
//
// Failover is the flip side of that looseness: when a node dies, its twin
// keeps the virtual node alive while a warm replacement re-syncs from the
// twin (a partner-RAM-scale copy window of T_C_L2). The scheme keeps no
// checkpoints at all, so any virtual node that loses both replicas — a
// catastrophic failure taking a node and its partner, or a second failure
// landing on a twin inside the re-sync window — forces a full relaunch from
// the application's PFS input.
type teamReplication struct {
	application workload.App
	costs       Costs
	syncPenalty float64
	phys        int

	// repairWindow is how long a struck node's replacement spends
	// re-syncing from its live twin before the pair is redundant again.
	repairWindow units.Duration
	// repairUntil holds, per physical node, the (run-relative) time its
	// in-flight re-sync completes; an entry only counts if its generation
	// mark equals gen. Bumping gen clears every mark in O(1).
	repairUntil []units.Duration
	repairIn    []uint64
	gen         uint64
}

// newTeamReplication builds the Lightweight Replication executor. Like full
// redundancy it occupies 2 * N_a physical nodes, which bounds viability.
func newTeamReplication(app workload.App, costs Costs, model *failures.Model, syncPenalty float64, machineNodes int) *executor {
	phys := 2 * app.Nodes
	s := &teamReplication{
		application:  app,
		costs:        costs,
		syncPenalty:  syncPenalty,
		phys:         phys,
		repairWindow: costs.L2,
		repairUntil:  make([]units.Duration, phys),
		repairIn:     make([]uint64, phys),
		gen:          1,
	}
	x := &executor{strat: s, model: model, phys: phys, viable: true}
	if phys > machineNodes {
		x.viable = false
		x.reason = fmt.Sprintf("team replication needs %d nodes but the machine has %d",
			phys, machineNodes)
	}
	return x
}

func (s *teamReplication) technique() core.Technique { return core.LightweightReplication }
func (s *teamReplication) app() workload.App         { return s.application }

// physicalNodes: failures strike both teams.
func (s *teamReplication) physicalNodes() int { return s.phys }

// effectiveWork: the decoupled teams only pay the heartbeat/sync stretch
// (1 + s) on the communication term, not redundancy's full duplication.
func (s *teamReplication) effectiveWork() units.Duration {
	return TeamReplicationBaseline(s.application, s.syncPenalty)
}

// checkpointInterval: the scheme keeps no checkpoints; failover relies
// entirely on the live twin.
func (s *teamReplication) checkpointInterval() units.Duration {
	return units.Duration(math.Inf(1))
}

// nextCheckpoint is never invoked (the interval is infinite).
func (s *teamReplication) nextCheckpoint() (int, units.Duration) { return 0, 0 }

func (s *teamReplication) onCheckpointDone(int, units.Duration) {}

// twinOf reports the other team's replica of the virtual node behind phys:
// physical nodes [0, N_a) are team A, [N_a, 2*N_a) team B.
func (s *teamReplication) twinOf(phys int) int {
	if phys < s.application.Nodes {
		return phys + s.application.Nodes
	}
	return phys - s.application.Nodes
}

// inRepair reports whether node's replacement is still re-syncing at the
// (run-relative) time at.
func (s *teamReplication) inRepair(node int, at units.Duration) bool {
	return s.repairIn[node] == s.gen && s.repairUntil[node] > at
}

// onFailure: transients are absorbed outright (memory intact, the process
// continues). A node loss is absorbed by the twin while a replacement
// re-syncs — unless the twin is itself mid-re-sync, in which case the
// virtual node has lost both replicas. A catastrophic failure destroys the
// node and its partner (the twin) at once. Either two-replica loss forces a
// relaunch from the PFS input: there are no checkpoints to fall back on.
func (s *teamReplication) onFailure(f failures.Failure, _ units.Duration) response {
	switch f.Severity {
	case failures.SeverityTransient:
		return response{}
	case failures.SeverityNodeLoss:
		if !s.inRepair(s.twinOf(f.Node), f.Time) {
			// The twin covers; the struck node re-syncs from it. A repeat
			// failure on a node already in repair just restarts its window.
			s.repairIn[f.Node] = s.gen
			s.repairUntil[f.Node] = f.Time + s.repairWindow
			return response{}
		}
	}
	// Catastrophic, or a node loss whose twin was still re-syncing: the
	// virtual node is gone. Relaunch from scratch (trace level 0, PFS
	// re-provisioning cost) and clear the repair marks.
	s.gen++
	return response{
		rollback:     true,
		restoreTo:    0,
		restoreLevel: 0,
		restartCost:  s.costs.PFS,
	}
}

func (s *teamReplication) recoverySpeed() float64 { return 1 }

func (s *teamReplication) reset() { s.gen++ }

// clone deep-copies the per-node repair marks so concurrent runs do not
// share state.
func (s *teamReplication) clone() strategy {
	dup := *s
	dup.repairUntil = make([]units.Duration, len(s.repairUntil))
	copy(dup.repairUntil, s.repairUntil)
	dup.repairIn = make([]uint64, len(s.repairIn))
	copy(dup.repairIn, s.repairIn)
	return &dup
}

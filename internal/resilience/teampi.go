package resilience

import (
	"fmt"
	"slices"

	"exaresil/internal/failures"
	"exaresil/internal/units"
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
	nodes int // virtual nodes N_a; team A is [0, N_a), team B [N_a, 2*N_a)
	pfs   units.Duration
	// repairWindow is how long a struck node's replacement spends
	// re-syncing from its live twin before the pair is redundant again.
	repairWindow units.Duration
}

// repair is one node's re-sync, complete at the (run-relative) time until.
// A run's re-syncs in flight (runState.repairs) follow the failures, not
// the node count. Failure times only grow within a run: a re-sync whose
// window ended by the current failure can never matter again and is
// dropped then, and a relaunch or a new run clears the list.
type repair struct {
	node  int
	until units.Duration
}

// withTeamReplication makes x run Lightweight Replication. Like full
// redundancy it occupies 2 * N_a physical nodes, which bounds viability.
// The scheme keeps no checkpoints, so the interval stays infinite.
func (x *Executor) withTeamReplication(costs Costs, syncPenalty float64, machineNodes int) {
	x.phys = 2 * x.app.Nodes
	// The decoupled teams only pay the heartbeat/sync stretch (1 + s) on
	// the communication term, not redundancy's full duplication.
	x.work = TeamReplicationBaseline(x.app, syncPenalty)
	x.strat = padded(teamReplication{nodes: x.app.Nodes, pfs: costs.PFS, repairWindow: costs.L2})
	if x.phys > machineNodes {
		x.block(fmt.Sprintf("team replication needs %d nodes but the machine has %d", x.phys, machineNodes))
	}
}

// nextCheckpoint is never invoked (the interval is infinite).
func (s *teamReplication) nextCheckpoint(*runState) (int, units.Duration) { return 0, 0 }

func (s *teamReplication) onCheckpointDone(*runState, int, units.Duration) {}

// twinOf reports the other team's replica of the virtual node behind phys.
func (s *teamReplication) twinOf(phys int) int {
	if phys < s.nodes {
		return phys + s.nodes
	}
	return phys - s.nodes
}

// repairAt drops the re-syncs complete by the (run-relative) time at and
// returns the index of node's, or -1 when its replacement is not
// re-syncing.
func repairAt(st *runState, node int, at units.Duration) int {
	st.repairs = slices.DeleteFunc(st.repairs, func(r repair) bool { return r.until <= at })
	return slices.IndexFunc(st.repairs, func(r repair) bool { return r.node == node })
}

// onFailure: transients are absorbed outright (memory intact, the process
// continues). A node loss is absorbed by the twin while a replacement
// re-syncs — unless the twin is itself mid-re-sync, in which case the
// virtual node has lost both replicas. A catastrophic failure destroys the
// node and its partner (the twin) at once. Either two-replica loss forces a
// relaunch from the PFS input: there are no checkpoints to fall back on.
func (s *teamReplication) onFailure(st *runState, f failures.Failure) response {
	switch f.Severity {
	case failures.SeverityTransient:
		return response{}
	case failures.SeverityNodeLoss:
		if repairAt(st, s.twinOf(f.Node), f.Time) < 0 {
			// The twin covers; the struck node re-syncs from it. A repeat
			// failure on a node already in repair just restarts its window.
			r := repair{node: f.Node, until: f.Time + s.repairWindow}
			if i := repairAt(st, f.Node, f.Time); i >= 0 {
				st.repairs[i] = r
			} else {
				st.repairs = append(st.repairs, r)
			}
			return response{}
		}
	}
	// Catastrophic, or a node loss whose twin was still re-syncing: the
	// virtual node is gone. Relaunch from scratch (trace level 0, PFS
	// re-provisioning cost) and clear the re-syncs.
	st.repairs = st.repairs[:0]
	return response{
		rollback:     true,
		restoreTo:    0,
		restoreLevel: 0,
		restartCost:  s.pfs,
	}
}

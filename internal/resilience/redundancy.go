package resilience

import (
	"fmt"

	"exaresil/internal/failures"
	"exaresil/internal/units"
)

// redundancy implements the partial/full redundancy technique of Section
// IV-E, after Elliott et al.: the application's virtual nodes are
// replicated at degree r on physical nodes (r = 1.5 replicates half of
// them, r = 2.0 all of them) on top of ordinary PFS checkpointing. A
// failure only forces a restore when every replica of some virtual node
// has failed since the last completed checkpoint; checkpoints (and
// restores) re-provision failed hardware and clear the failure marks.
// Duplicated communication scales the per-step communication term by r
// (Eq. 8).
type redundancy struct {
	nodes      int // virtual nodes N_a
	replicated int // virtual nodes [0, replicated) have a second replica
	pfs        units.Duration
}

// withRedundancy makes x run redundancy of the given degree. The
// machine's node count bounds viability: replica sets larger than the
// machine cannot execute (the zero-efficiency cliffs of Figures 1-3).
func (x *Executor) withRedundancy(costs Costs, degree float64, machineNodes int, periodScale float64) {
	x.phys = RedundantNodes(x.app.Nodes, degree)
	x.marks = x.phys
	x.work = RedundantBaseline(x.app, degree)
	x.strat = padded(redundancy{nodes: x.app.Nodes, replicated: x.phys - x.app.Nodes, pfs: costs.PFS})
	if x.phys > machineNodes {
		x.block(fmt.Sprintf("redundancy degree %.1f needs %d nodes but the machine has %d",
			degree, x.phys, machineNodes))
		return
	}
	// The paper keeps every checkpoint parameter identical to Checkpoint
	// Restart, including the optimal period.
	rate := x.model.Rate(x.app.Nodes)
	tau, ok := DalyPeriod(costs.PFS, rate)
	if !ok {
		x.block(fmt.Sprintf("optimal checkpoint period is non-positive (T_PFS=%s, rate=%s)", costs.PFS, rate))
	}
	x.interval = tau * units.Duration(periodScale)
}

func (s *redundancy) nextCheckpoint(*runState) (int, units.Duration) { return 3, s.pfs }

// onCheckpointDone commits the checkpoint and re-provisions failed
// hardware: only failures after this point can combine to kill a virtual
// node.
func (s *redundancy) onCheckpointDone(st *runState, _ int, progress units.Duration) {
	st.saved[3] = progress
	st.has[3] = true
	st.gen++
}

// partnerOf reports the other replica of the virtual node behind phys, or
// -1 if that virtual node is unreplicated. Physical nodes [0, N_a) are the
// primaries of virtual nodes 0..N_a-1; physical nodes [N_a, phys) are the
// secondaries of virtual nodes 0..replicated-1.
func (s *redundancy) partnerOf(phys int) int {
	switch {
	case phys >= s.nodes:
		return phys - s.nodes
	case phys < s.replicated:
		return s.nodes + phys
	default:
		return -1
	}
}

// onFailure marks the struck replica and rolls back only if its virtual
// node has now lost every replica since the last checkpoint or restore.
func (s *redundancy) onFailure(st *runState, f failures.Failure) response {
	node := f.Node
	st.failedIn[node] = st.gen
	if partner := s.partnerOf(node); partner >= 0 && st.failedIn[partner] != st.gen {
		// The virtual node still has a live replica: absorbed.
		return response{}
	}
	// Virtual node lost: restore from the last PFS checkpoint — or, before
	// one has committed, relaunch from scratch (trace level 0, same PFS
	// re-provisioning cost). The restart clears the failure marks.
	st.gen++
	level := 0
	if st.has[3] {
		level = 3
	}
	return response{
		rollback:     true,
		restoreTo:    st.saved[3],
		restoreLevel: level,
		restartCost:  s.pfs,
	}
}

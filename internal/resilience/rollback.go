package resilience

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/units"
)

// rollback is single-level checkpoint-rollback: blocking checkpoints of
// one level and one cost every Daly period of work, and every failure
// restoring the last commit. Checkpoint Restart (Section IV-B), Parallel
// Recovery (Section IV-D) and In-Memory Replicated Checkpoint (ReStore,
// arXiv:2203.01107) are this strategy with the parameters New fills:
//
//   - Checkpoint Restart writes to the parallel file system (level 3) and
//     pays T_PFS for every checkpoint, restore and relaunch.
//   - Parallel Recovery, after Meneses et al., writes to partner-node
//     memory (level 2, Eq. 6) and pays T_L2 for each, even for a relaunch.
//     Message logging stretches the work by mu (Eq. 7), and lost work
//     replays phi times faster, spread across helper nodes.
//   - ReStore replicates each checkpoint in the RAM of k peers inside the
//     allocation (level 2): writes and restores are partner-copy cheap,
//     but a relaunch reads the PFS input at T_PFS. Its one extra rule is
//     replica loss (see onFailure). With no peers to hold the replicas
//     (N_a <= k) it is Checkpoint Restart exactly, which the property
//     tests pin.
//
// Before the first commit, or once ReStore's replica set is gone, a
// failure relaunches from scratch: it reads no checkpoint, so it traces at
// level 0, and it costs relaunchCost.
type rollback struct {
	level        int            // trace level of checkpoints and restores
	ckptCost     units.Duration // per-checkpoint write cost
	restoreCost  units.Duration // restore cost from a surviving checkpoint
	relaunchCost units.Duration // from-scratch relaunch cost
	degree       int            // replica degree k; 0 = no replica-loss rule
}

// withRollback makes x run s, checkpointing at the Daly period of s's
// checkpoint cost.
func (x *Executor) withRollback(s rollback, periodScale float64) {
	x.strat = padded(s)
	rate := x.model.Rate(x.app.Nodes)
	tau, ok := DalyPeriod(s.ckptCost, rate)
	if !ok {
		x.block(fmt.Sprintf("optimal checkpoint period is non-positive (T_C=%s, rate=%s): checkpointing cannot keep ahead of failures",
			s.ckptCost, rate))
	}
	x.interval = tau * units.Duration(periodScale)
}

// holderLoss maps a failure severity to the number of replica copies it
// destroys: transients leave memory intact, node losses take one holder,
// catastrophic failures take a node and its partner.
func holderLoss(sev failures.Severity) int {
	switch sev {
	case failures.SeverityNodeLoss:
		return 1
	case failures.SeverityCatastrophic:
		return 2
	default:
		return 0
	}
}

func (s *rollback) nextCheckpoint(*runState) (int, units.Duration) { return s.level, s.ckptCost }

// onCheckpointDone commits the checkpoint and, for ReStore, re-provisions
// its replica set: only holder losses after this point can destroy it.
func (s *rollback) onCheckpointDone(st *runState, _ int, progress units.Duration) {
	st.saved[s.level], st.has[s.level], st.lost = progress, true, 0
}

// onFailure: every failure forces a restore. Under ReStore's rule the
// failures since the last commit accumulate holder losses, since replicas
// are only re-provisioned by the next commit; once they reach k the
// checkpoint is gone until that commit, and the restore becomes a
// relaunch.
func (s *rollback) onFailure(st *runState, f failures.Failure) response {
	if s.degree > 0 {
		st.lost += holderLoss(f.Severity)
		if st.lost >= s.degree {
			st.saved[s.level], st.has[s.level] = 0, false
		}
	}
	level, cost := 0, s.relaunchCost
	if st.has[s.level] {
		level, cost = s.level, s.restoreCost
	}
	return response{rollback: true, restoreTo: st.saved[s.level], restoreLevel: level, restartCost: cost}
}

// ReStoreInfo describes an In-Memory Replicated Checkpoint executor's
// resolved placement, for the conformance checker's trace mirror.
type ReStoreInfo struct {
	// Degree is the replica count k (0 when degenerate).
	Degree int
	// Degenerate reports the Checkpoint-Restart fallback (no peers can
	// hold the replicas).
	Degenerate bool
}

// ReStoreInfoOf reports the ReStore placement behind an executor, false for
// executors of any other technique.
func ReStoreInfoOf(x *Executor) (ReStoreInfo, bool) {
	if x.tech != core.InMemoryReplicatedCheckpoint {
		return ReStoreInfo{}, false
	}
	k := x.strat.(*rollback).degree
	return ReStoreInfo{Degree: k, Degenerate: k == 0}, true
}

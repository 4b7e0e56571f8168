package resilience

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/units"
	"exaresil/internal/workload"
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
	application workload.App
	costs       Costs
	degree      float64
	phys        int
	replicated  int // virtual nodes [0, replicated) have a second replica
	tau         units.Duration

	saved units.Duration
	has   bool
	// failedIn holds, per physical node, the "generation" in which it
	// last failed; a node counts as failed only if its entry equals gen.
	// Bumping gen clears every mark in O(1).
	failedIn []uint64
	gen      uint64
}

// newRedundancy builds a redundancy executor of the given degree. The
// machine's node count bounds viability: replica sets larger than the
// machine cannot execute (the zero-efficiency cliffs of Figures 1-3).
func newRedundancy(app workload.App, costs Costs, model *failures.Model, degree float64, machineNodes int, periodScale float64) *executor {
	phys := RedundantNodes(app.Nodes, degree)
	s := &redundancy{
		application: app,
		costs:       costs,
		degree:      degree,
		phys:        phys,
		replicated:  phys - app.Nodes,
		failedIn:    make([]uint64, phys),
		gen:         1,
	}
	x := &executor{strat: s, model: model, phys: phys, viable: true}
	if phys > machineNodes {
		x.viable = false
		x.reason = fmt.Sprintf("redundancy degree %.1f needs %d nodes but the machine has %d",
			degree, phys, machineNodes)
		return x
	}
	// The paper keeps every checkpoint parameter identical to Checkpoint
	// Restart, including the optimal period.
	tau, ok := DalyPeriod(costs.PFS, model.Rate(app.Nodes))
	if !ok {
		x.viable = false
		x.reason = fmt.Sprintf("optimal checkpoint period is non-positive (T_PFS=%s, rate=%s)",
			costs.PFS, model.Rate(app.Nodes))
	}
	s.tau = tau * units.Duration(periodScale)
	return x
}

// Degree reports the redundancy degree r.
func (s *redundancy) Degree() float64 { return s.degree }

func (s *redundancy) technique() core.Technique {
	if s.degree >= 2 {
		return core.FullRedundancy
	}
	return core.PartialRedundancy
}

func (s *redundancy) app() workload.App { return s.application }

// physicalNodes: failures strike the whole replica set, not just the
// virtual nodes.
func (s *redundancy) physicalNodes() int { return s.phys }

// effectiveWork is Eq. 8: duplicated messages stretch the communication
// share of every step by r.
func (s *redundancy) effectiveWork() units.Duration {
	return RedundantBaseline(s.application, s.degree)
}

func (s *redundancy) checkpointInterval() units.Duration { return s.tau }

func (s *redundancy) nextCheckpoint() (int, units.Duration) { return 3, s.costs.PFS }

// onCheckpointDone commits the checkpoint and re-provisions failed
// hardware: only failures after this point can combine to kill a virtual
// node.
func (s *redundancy) onCheckpointDone(_ int, progress units.Duration) {
	s.saved = progress
	s.has = true
	s.gen++
}

// replicaLayout: physical nodes [0, N_a) are the primaries of virtual
// nodes 0..N_a-1; physical nodes [N_a, phys) are the secondaries of
// virtual nodes 0..replicated-1.
func (s *redundancy) virtualOf(phys int) int {
	if phys < s.application.Nodes {
		return phys
	}
	return phys - s.application.Nodes
}

// partnerOf reports the other replica of the virtual node behind phys, or
// -1 if that virtual node is unreplicated.
func (s *redundancy) partnerOf(phys int) int {
	v := s.virtualOf(phys)
	if v >= s.replicated {
		return -1
	}
	if phys < s.application.Nodes {
		return s.application.Nodes + v
	}
	return v
}

// onFailure marks the struck replica and rolls back only if its virtual
// node has now lost every replica since the last checkpoint or restore.
func (s *redundancy) onFailure(f failures.Failure, _ units.Duration) response {
	node := f.Node
	s.failedIn[node] = s.gen
	if partner := s.partnerOf(node); partner >= 0 && s.failedIn[partner] != s.gen {
		// The virtual node still has a live replica: absorbed.
		return response{}
	}
	// Virtual node lost: restore from the last PFS checkpoint — or, before
	// one has committed, relaunch from scratch (trace level 0, same PFS
	// re-provisioning cost). The restart clears the failure marks.
	s.gen++
	level := 0
	if s.has {
		level = 3
	}
	return response{
		rollback:     true,
		restoreTo:    s.saved,
		restoreLevel: level,
		restartCost:  s.costs.PFS,
	}
}

func (s *redundancy) recoverySpeed() float64 { return 1 }

func (s *redundancy) reset() {
	s.saved, s.has = 0, false
	s.gen++
}

// clone deep-copies the per-replica failure marks so concurrent runs do
// not share state.
func (s *redundancy) clone() strategy {
	dup := *s
	dup.failedIn = make([]uint64, len(s.failedIn))
	copy(dup.failedIn, s.failedIn)
	return &dup
}

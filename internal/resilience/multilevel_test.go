package resilience

import (
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// TestMultilevelScratchRestartAccounting pins the from-scratch restart
// contract of onFailure: when no checkpoint of an adequate level survives,
// the response must roll all the way back to zero progress, report restore
// LEVEL 0 (no checkpoint was read — attributing the relaunch to a real
// level would corrupt trace restore histograms), and still charge the
// failing level's symmetric restore time as the relaunch cost, per Moody's
// model.
// TestSingleLevelScratchRestartAccounting pins the same contract for the
// single-level techniques: a rollback before the first checkpoint commits
// is a from-scratch relaunch (trace level 0), not a read of the
// technique's storage level; the relaunch cost is unchanged.
func TestSingleLevelScratchRestartAccounting(t *testing.T) {
	costs := Costs{L1: 1 * units.Minute, L2: 3 * units.Minute, PFS: 10 * units.Minute}
	anyFailure := failures.Failure{Severity: failures.SeverityTransient}

	// The single-level rollbacks as New parameterizes them.
	cfg := machine.Exascale()
	app := testApp(workload.C64, 1000)
	real := ComputeCosts(app, cfg)
	rollbackOf := func(tech core.Technique) strategy {
		x, err := New(tech, app, cfg, defaultModel(cfg), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return x.strat
	}
	for _, c := range []struct {
		tech              core.Technique
		level             int
		relaunch, restore units.Duration
	}{
		{core.CheckpointRestart, 3, real.PFS, real.PFS},
		{core.ParallelRecovery, 2, real.L2, real.L2},
		{core.InMemoryReplicatedCheckpoint, 2, real.PFS, ReplicatedRestoreCost(real)},
	} {
		s := rollbackOf(c.tech)
		var st runState
		if resp := s.onFailure(&st, anyFailure); resp.restoreLevel != 0 || resp.restoreTo != 0 || resp.restartCost != c.relaunch {
			t.Errorf("%v scratch restart = level %d @ %v costing %v, want level 0 @ 0 costing %v",
				c.tech, resp.restoreLevel, resp.restoreTo, resp.restartCost, c.relaunch)
		}
		s.onCheckpointDone(&st, c.level, 30)
		if resp := s.onFailure(&st, anyFailure); resp.restoreLevel != c.level || resp.restoreTo != 30 || resp.restartCost != c.restore {
			t.Errorf("%v restore = level %d @ %v costing %v, want level %d @ 30min costing %v",
				c.tech, resp.restoreLevel, resp.restoreTo, resp.restartCost, c.level, c.restore)
		}
	}

	// Full redundancy on 4 virtual / 8 physical nodes: a rollback needs
	// both replicas of one virtual node down within a generation.
	red := &redundancy{nodes: 4, replicated: 4, pfs: costs.PFS}
	var st runState
	st.reset(8)
	if resp := red.onFailure(&st, failures.Failure{Node: 0}); resp.rollback {
		t.Fatal("first replica hit should be absorbed")
	}
	if resp := red.onFailure(&st, failures.Failure{Node: 4}); !resp.rollback ||
		resp.restoreLevel != 0 || resp.restoreTo != 0 || resp.restartCost != costs.PFS {
		t.Errorf("redundancy scratch restart = %+v, want rollback to level 0 @ 0 costing T_PFS", resp)
	}
	red.onCheckpointDone(&st, 3, 30)
	red.onFailure(&st, failures.Failure{Node: 1})
	if resp := red.onFailure(&st, failures.Failure{Node: 5}); resp.restoreLevel != 3 || resp.restoreTo != 30 {
		t.Errorf("redundancy restore = level %d @ %v, want level 3 @ 30min", resp.restoreLevel, resp.restoreTo)
	}
}

func TestMultilevelScratchRestartAccounting(t *testing.T) {
	costs := Costs{L1: 1 * units.Minute, L2: 3 * units.Minute, PFS: 10 * units.Minute}
	s := &multilevel{
		costs:    costs,
		schedule: MultilevelSchedule{Interval: 30 * units.Minute, L1PerL2: 2, L2PerL3: 2},
	}
	var st runState

	// No checkpoints at all: a node-loss failure restarts from scratch.
	resp := s.onFailure(&st, failures.Failure{Severity: failures.SeverityNodeLoss})
	if !resp.rollback {
		t.Fatal("failure with no checkpoint must roll back")
	}
	if resp.restoreTo != 0 {
		t.Errorf("scratch restart restoreTo = %v, want 0", resp.restoreTo)
	}
	if resp.restoreLevel != 0 {
		t.Errorf("scratch restart restoreLevel = %d, want 0 (no checkpoint read)", resp.restoreLevel)
	}
	if resp.restartCost != costs.L2 {
		t.Errorf("scratch restart after severity-2 costs %v, want T_L2 = %v", resp.restartCost, costs.L2)
	}

	// A level-1 checkpoint does not survive a node loss: scratch again,
	// and the destroyed level must be invalidated.
	s.onCheckpointDone(&st, 1, 30)
	resp = s.onFailure(&st, failures.Failure{Severity: failures.SeverityNodeLoss})
	if resp.restoreLevel != 0 || resp.restoreTo != 0 {
		t.Errorf("L1 checkpoint survived a node loss: level %d, progress %v", resp.restoreLevel, resp.restoreTo)
	}
	if st.has[1] {
		t.Error("node loss left the level-1 checkpoint marked alive")
	}

	// A level-2 checkpoint survives a node loss and is restored, at its
	// own cost and level.
	s.onCheckpointDone(&st, 2, 40)
	resp = s.onFailure(&st, failures.Failure{Severity: failures.SeverityNodeLoss})
	if resp.restoreLevel != 2 || resp.restoreTo != 40 {
		t.Errorf("restore = level %d @ %v, want level 2 @ 40min", resp.restoreLevel, resp.restoreTo)
	}
	if resp.restartCost != costs.L2 {
		t.Errorf("level-2 restore costs %v, want %v", resp.restartCost, costs.L2)
	}

	// A newer level-1 checkpoint wins a transient failure.
	s.onCheckpointDone(&st, 1, 60)
	resp = s.onFailure(&st, failures.Failure{Severity: failures.SeverityTransient})
	if resp.restoreLevel != 1 || resp.restoreTo != 60 {
		t.Errorf("restore = level %d @ %v, want level 1 @ 60min", resp.restoreLevel, resp.restoreTo)
	}

	// A catastrophic failure with only L1/L2 checkpoints: scratch at PFS
	// relaunch cost.
	resp = s.onFailure(&st, failures.Failure{Severity: failures.SeverityCatastrophic})
	if resp.restoreLevel != 0 || resp.restoreTo != 0 {
		t.Errorf("catastrophe restored level %d @ %v, want scratch", resp.restoreLevel, resp.restoreTo)
	}
	if resp.restartCost != costs.PFS {
		t.Errorf("catastrophic relaunch costs %v, want T_PFS = %v", resp.restartCost, costs.PFS)
	}
	if st.has[1] || st.has[2] {
		t.Error("catastrophe left lower-level checkpoints alive")
	}
}

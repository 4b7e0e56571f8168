package resilience

import (
	"math"
	"testing"
	"testing/quick"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// TestEngineInvariantsProperty drives every technique with arbitrary
// seeds, classes, and sizes and checks the invariants that must hold for
// any completed run:
//
//  1. makespan decomposes exactly into work + rework + checkpoints +
//     restarts;
//  2. efficiency never exceeds the technique's intrinsic bound
//     baseline/effectiveWork;
//  3. rework equals lost work divided by the recovery speed;
//  4. rollbacks never exceed failures, and every counter is non-negative.
func TestEngineInvariantsProperty(t *testing.T) {
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	classes := workload.Classes()
	techniques := core.Techniques()
	opts := DefaultConfig()

	prop := func(seed uint64, classIdx, techIdx uint8, sizeRaw uint16, stepsRaw uint16) bool {
		class := classes[int(classIdx)%len(classes)]
		tech := techniques[int(techIdx)%len(techniques)]
		nodes := int(sizeRaw)%60000 + 100
		steps := int(stepsRaw)%1440 + 60
		app := workload.App{Class: class, TimeSteps: steps, Nodes: nodes}

		x, err := New(tech, app, cfg, model, opts)
		if err != nil {
			t.Logf("constructor error: %v", err)
			return false
		}
		if ok, _ := x.Viable(); !ok {
			return true // blocked configurations have no run to check
		}
		res := NewRuntime(nil).Run(x, 0, units.Duration(100*float64(app.Baseline())), rng.New(seed))
		if !res.Completed {
			// Abandoned runs only need sane counters.
			return res.Failures >= res.Rollbacks && res.Rollbacks >= 0
		}

		// (1) makespan decomposition.
		reconstructed := res.EffectiveWork + res.ReworkTime + res.CheckpointTime + res.RestartTime
		if math.Abs(float64(res.Makespan()-reconstructed)) > 1e-6 {
			t.Logf("%v %s n=%d: makespan %v != %v", tech, class.Name, nodes, res.Makespan(), reconstructed)
			return false
		}
		// (2) efficiency bound.
		bound := float64(res.Baseline) / float64(res.EffectiveWork)
		if res.Efficiency() > bound+1e-9 {
			t.Logf("%v: efficiency %v above bound %v", tech, res.Efficiency(), bound)
			return false
		}
		// (3) rework/lost-work ratio.
		speed := 1.0
		if tech == core.ParallelRecovery {
			speed = opts.RecoverySpeedup
		}
		want := float64(res.LostWork) / speed
		if math.Abs(float64(res.ReworkTime)-want) > 1e-6*math.Max(1, want) {
			t.Logf("%v: rework %v != lost/speed %v", tech, res.ReworkTime, want)
			return false
		}
		// (4) counters.
		return res.Failures >= res.Rollbacks && res.Rollbacks >= 0 &&
			res.LostWork >= 0 && res.TotalCheckpoints() >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMoreFailuresNeverHelp verifies a coarse stochastic-dominance
// property: averaged over seeds, efficiency at a 2-year MTBF never beats
// efficiency at 20 years for the same configuration.
func TestMoreFailuresNeverHelp(t *testing.T) {
	cfg20 := machine.Exascale().WithMTBF(20 * units.Year)
	cfg2 := machine.Exascale().WithMTBF(2 * units.Year)
	m20 := failures.MustModel(cfg20.MTBF, failures.DefaultSeverityPMF())
	m2 := failures.MustModel(cfg2.MTBF, failures.DefaultSeverityPMF())
	app := testApp(workload.C32, 24000)

	for _, tech := range core.Techniques() {
		x20, err := New(tech, app, cfg20, m20, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		x2, err := New(tech, app, cfg2, m2, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := x2.Viable(); !ok {
			continue
		}
		var e20, e2 float64
		const trials = 20
		for seed := uint64(0); seed < trials; seed++ {
			horizon := units.Duration(100 * float64(app.Baseline()))
			e20 += NewRuntime(nil).Run(x20, 0, horizon, rng.New(seed)).Efficiency()
			e2 += NewRuntime(nil).Run(x2, 0, horizon, rng.New(seed)).Efficiency()
		}
		if e2 > e20 {
			t.Errorf("%v: mean efficiency at 2y MTBF (%v) beats 20y (%v)",
				tech, e2/trials, e20/trials)
		}
	}
}

// TestShorterAppsFinishSooner checks monotonicity of makespan in work for
// a fixed failure environment.
func TestShorterAppsFinishSooner(t *testing.T) {
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	mean := func(steps int) float64 {
		app := workload.App{Class: workload.B64, TimeSteps: steps, Nodes: 12000}
		x, err := New(core.MultilevelCheckpoint, app, cfg, model, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		const trials = 15
		for seed := uint64(0); seed < trials; seed++ {
			res := NewRuntime(nil).Run(x, 0, 1e8, rng.New(seed))
			if !res.Completed {
				t.Fatalf("run incomplete at %d steps", steps)
			}
			sum += res.Makespan().Minutes()
		}
		return sum / trials
	}
	if short, long := mean(360), mean(2880); short >= long {
		t.Errorf("6h app mean makespan %v >= 48h app %v", short, long)
	}
}

// TestLightweightReplicationUndercutsFullRedundancy pins the ordering the
// TeaMPI paper claims: team replication trades full redundancy's duplicated
// messages (Eq. 8) for a bounded synchronization penalty, so its inflated
// work sits between the plain baseline and full redundancy's for every
// class — strictly below full redundancy whenever the class communicates
// and the penalty is below 1.
func TestLightweightReplicationUndercutsFullRedundancy(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	sync := DefaultConfig().TeamSyncPenalty
	for _, class := range workload.Classes() {
		app := workload.App{Class: class, TimeSteps: 720, Nodes: 12000}
		base := app.Baseline()
		team := TeamReplicationBaseline(app, sync)
		full := RedundantBaseline(app, 2.0)
		if team < base-1e-9 || team > full+1e-9 {
			t.Errorf("%s: team baseline %v outside [base %v, full redundancy %v]",
				class.Name, team, base, full)
		}
		if class.CommFraction > 0 && sync < 1 && team >= full {
			t.Errorf("%s: team baseline %v does not undercut full redundancy %v",
				class.Name, team, full)
		}
		// The executors expose exactly these baselines as effective work.
		for _, tc := range []struct {
			tech core.Technique
			want units.Duration
		}{
			{core.LightweightReplication, team},
			{core.FullRedundancy, full},
		} {
			x := mustExecutor(t, tc.tech, app, cfg, model)
			res := NewRuntime(nil).Run(x, 0, units.Duration(100*float64(app.Baseline())), rng.New(1))
			if !res.Completed {
				continue // an unlucky seed only skips the cross-check
			}
			if math.Abs(float64(res.EffectiveWork-tc.want)) > 1e-6 {
				t.Errorf("%s/%v: effective work %v, want %v", class.Name, tc.tech, res.EffectiveWork, tc.want)
			}
		}
	}
}

// TestReStoreDegenerateMatchesCheckpointRestart pins the exact degeneration:
// with no peers able to hold replicas (N_a <= k), the In-Memory Replicated
// Checkpoint executor must reproduce Checkpoint Restart run for run — same
// period, same costs, same trajectory on the same random source.
func TestReStoreDegenerateMatchesCheckpointRestart(t *testing.T) {
	cfg := machine.Exascale().WithMTBF(units.Duration(2.5) * units.Year)
	model := defaultModel(cfg)
	app := workload.App{Class: workload.C64, TimeSteps: 720, Nodes: 2}
	opts := DefaultConfig()
	opts.ReStoreDegree = app.Nodes // no room for peers: must degenerate

	rs, err := New(core.InMemoryReplicatedCheckpoint, app, cfg, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info, ok := ReStoreInfoOf(rs); !ok || !info.Degenerate {
		t.Fatalf("expected a degenerate ReStore executor, got %+v (ok=%v)", info, ok)
	}
	cr, err := New(core.CheckpointRestart, app, cfg, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	horizon := units.Duration(200 * float64(app.Baseline()))
	for seed := uint64(0); seed < 5; seed++ {
		a := NewRuntime(nil).Run(rs, 0, horizon, rng.New(seed))
		b := NewRuntime(nil).Run(cr, 0, horizon, rng.New(seed))
		a.Technique = b.Technique // the label is the only allowed difference
		if a != b {
			t.Fatalf("seed %d: degenerate ReStore diverged from Checkpoint Restart:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestZeroCommunicationClassesMatchAcrossMemory verifies that classes
// differing only in memory footprint behave identically under techniques
// whose costs do not depend on memory... none do (all checkpoint costs
// scale with N_m), so instead check the direction: bigger footprints can
// never be cheaper to checkpoint.
func TestBiggerFootprintNeverCheaper(t *testing.T) {
	cfg := machine.Exascale()
	for _, nodes := range []int{1200, 30000} {
		c32 := ComputeCosts(testApp(workload.A32, nodes), cfg)
		c64 := ComputeCosts(testApp(workload.A64, nodes), cfg)
		if c64.PFS < c32.PFS || c64.L1 < c32.L1 || c64.L2 < c32.L2 {
			t.Errorf("64GB checkpoints cheaper than 32GB at %d nodes", nodes)
		}
	}
}

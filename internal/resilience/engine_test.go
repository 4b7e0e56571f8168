package resilience

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// mustExecutor builds an executor or fails the test.
func mustExecutor(t *testing.T, tech core.Technique, app workload.App, cfg machine.Config, model *failures.Model) *Executor {
	t.Helper()
	x, err := New(tech, app, cfg, model, DefaultConfig())
	if err != nil {
		t.Fatalf("New(%v): %v", tech, err)
	}
	return x
}

// run executes with a generous horizon.
func run(t *testing.T, x *Executor, seed uint64) Result {
	t.Helper()
	app := x.App()
	horizon := units.Duration(200 * float64(app.Baseline()))
	return NewRuntime(nil).Run(x, 0, horizon, rng.New(seed))
}

func defaultModel(cfg machine.Config) *failures.Model {
	return failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
}

func TestFactoryRejectsBadInputs(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.A32, 1000)

	if _, err := New(core.CheckpointRestart, workload.App{}, cfg, model, DefaultConfig()); err == nil {
		t.Error("invalid app accepted")
	}
	if _, err := New(core.CheckpointRestart, app, machine.Config{}, model, DefaultConfig()); err == nil {
		t.Error("invalid machine accepted")
	}
	if _, err := New(core.CheckpointRestart, app, cfg, nil, DefaultConfig()); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(core.CheckpointRestart, app, cfg, model, Config{RecoverySpeedup: 0}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := New(core.Technique(99), app, cfg, model, DefaultConfig()); err == nil {
		t.Error("unknown technique accepted")
	}
	big := testApp(workload.A32, cfg.Nodes+1)
	if _, err := New(core.CheckpointRestart, big, cfg, model, DefaultConfig()); err == nil {
		t.Error("oversized app accepted")
	}
}

func TestAllTechniquesCompleteSmallApp(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.B32, 1200) // 1% of the machine
	for _, tech := range core.Techniques() {
		x := mustExecutor(t, tech, app, cfg, model)
		if ok, reason := x.Viable(); !ok {
			t.Errorf("%v not viable for a 1%% app: %s", tech, reason)
			continue
		}
		res := run(t, x, 1)
		if !res.Completed {
			t.Errorf("%v did not complete: %v", tech, res)
			continue
		}
		if eff := res.Efficiency(); eff <= 0 || eff > 1 {
			t.Errorf("%v efficiency %v outside (0, 1]", tech, eff)
		}
		if res.Makespan() < res.EffectiveWork {
			t.Errorf("%v makespan %v below effective work %v", tech, res.Makespan(), res.EffectiveWork)
		}
		if res.Rollbacks > res.Failures {
			t.Errorf("%v rollbacks %d exceed failures %d", tech, res.Rollbacks, res.Failures)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.D64, 30000)
	for _, tech := range core.Techniques() {
		x := mustExecutor(t, tech, app, cfg, model)
		if ok, _ := x.Viable(); !ok {
			continue
		}
		a := run(t, x, 42)
		b := run(t, x, 42)
		if a != b {
			t.Errorf("%v replay diverged:\n  %+v\n  %+v", tech, a, b)
		}
		c := run(t, x, 43)
		if a == c && a.Failures > 0 {
			t.Errorf("%v: different seeds produced identical eventful runs", tech)
		}
	}
}

func TestCheckpointRestartOverheadAccounting(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.C64, 12000) // 10%
	x := mustExecutor(t, core.CheckpointRestart, app, cfg, model)
	res := run(t, x, 7)
	if !res.Completed {
		t.Fatalf("run did not complete: %v", res)
	}
	// Makespan decomposes into work, rework, checkpoints, and restarts.
	reconstructed := res.EffectiveWork + res.ReworkTime + res.CheckpointTime + res.RestartTime
	if math.Abs(float64(res.Makespan()-reconstructed)) > 1e-6 {
		t.Errorf("makespan %v != work %v + rework %v + ckpt %v + restart %v",
			res.Makespan(), res.EffectiveWork, res.ReworkTime, res.CheckpointTime, res.RestartTime)
	}
	// CR checkpoints are all level 3.
	if res.Checkpoints[1] != 0 || res.Checkpoints[2] != 0 {
		t.Errorf("CR produced non-PFS checkpoints: %v", res.Checkpoints)
	}
	if res.Checkpoints[3] == 0 {
		t.Error("CR produced no checkpoints on a 1-day, 10%-machine run")
	}
	// With recovery speed 1, rework equals lost work.
	if math.Abs(float64(res.ReworkTime-res.LostWork)) > 1e-6 {
		t.Errorf("rework %v != lost work %v at unit recovery speed", res.ReworkTime, res.LostWork)
	}
}

func TestCheckpointRestartNotViableAtExascaleOneYearMTBF(t *testing.T) {
	cfg := machine.Exascale().WithMTBF(1 * units.Year)
	model := defaultModel(cfg)
	app := testApp(workload.D64, cfg.Nodes)
	x := mustExecutor(t, core.CheckpointRestart, app, cfg, model)
	ok, reason := x.Viable()
	if ok {
		t.Fatal("CR should be non-viable at exascale with 1-year MTBF")
	}
	if !strings.Contains(reason, "checkpoint") {
		t.Errorf("unhelpful reason: %q", reason)
	}
	res := run(t, x, 1)
	if res.Completed || res.Efficiency() != 0 || res.Blocked == "" {
		t.Errorf("blocked run should report zero efficiency: %+v", res)
	}
}

func TestCheckpointRestartCannotProgressAt25YearMTBF(t *testing.T) {
	// Figure 3's observation: at a 2.5-year MTBF, exascale-sized CR runs
	// spend so long checkpointing and restarting that applications are
	// "unable to even complete execution". The Daly period is still
	// (barely) positive, so the executor is viable — but the mean time
	// between failures (~11 min) is below the restart time (~17.8 min)
	// and efficiency collapses toward zero.
	cfg := machine.Exascale().WithMTBF(units.Duration(2.5) * units.Year)
	model := defaultModel(cfg)
	app := testApp(workload.D64, cfg.Nodes)
	x := mustExecutor(t, core.CheckpointRestart, app, cfg, model)
	if ok, _ := x.Viable(); !ok {
		t.Fatal("CR should be (nominally) viable at 2.5-year MTBF")
	}
	res := NewRuntime(nil).Run(x, 0, units.Duration(50*float64(app.Baseline())), rng.New(1))
	if eff := res.Efficiency(); eff > 0.05 {
		t.Errorf("CR efficiency %v at exascale/2.5y; expected near-zero", eff)
	}
}

func TestParallelRecoveryInflation(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.D64, 1200)
	x := mustExecutor(t, core.ParallelRecovery, app, cfg, model)
	res := run(t, x, 3)
	if !res.Completed {
		t.Fatalf("PR run did not complete: %v", res)
	}
	// Message logging inflates work by mu = 1.075 for D64; efficiency is
	// bounded by 1/mu even in a failure-free run.
	if res.EffectiveWork < units.Duration(1.074*float64(res.Baseline)) {
		t.Errorf("effective work %v not inflated by mu", res.EffectiveWork)
	}
	if eff := res.Efficiency(); eff > 1/1.075+1e-9 {
		t.Errorf("PR efficiency %v exceeds 1/mu bound", eff)
	}
	// PR checkpoints are all in-memory (level 2).
	if res.Checkpoints[1] != 0 || res.Checkpoints[3] != 0 {
		t.Errorf("PR produced non-memory checkpoints: %v", res.Checkpoints)
	}
}

func TestParallelRecoveryReworkFasterThanLost(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.A32, 60000) // large app: frequent failures
	x := mustExecutor(t, core.ParallelRecovery, app, cfg, model)
	res := run(t, x, 11)
	if !res.Completed || res.Rollbacks == 0 {
		t.Fatalf("need a completed run with rollbacks, got %v", res)
	}
	// Rework wall time must be lost work divided by the recovery speedup.
	want := float64(res.LostWork) / DefaultConfig().RecoverySpeedup
	if math.Abs(float64(res.ReworkTime)-want) > 1e-6*math.Max(1, want) {
		t.Errorf("rework %v, want lost/phi = %v", res.ReworkTime, want)
	}
}

func TestMultilevelUsesAllLevels(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.C64, 30000)
	x := mustExecutor(t, core.MultilevelCheckpoint, app, cfg, model)
	res := run(t, x, 5)
	if !res.Completed {
		t.Fatalf("ML run did not complete: %v", res)
	}
	if res.Checkpoints[1] == 0 {
		t.Error("ML took no level-1 checkpoints")
	}
	if res.Checkpoints[1] < res.Checkpoints[2] || res.Checkpoints[2] < res.Checkpoints[3] {
		t.Errorf("ML level counts should be decreasing: %v", res.Checkpoints)
	}
}

func TestMultilevelBeatsCheckpointRestartAtScale(t *testing.T) {
	// The core multilevel claim: against the same failures, three-level
	// checkpointing beats all-PFS checkpointing for large applications.
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.C64, 60000)
	ml := mustExecutor(t, core.MultilevelCheckpoint, app, cfg, model)
	cr := mustExecutor(t, core.CheckpointRestart, app, cfg, model)
	var mlEff, crEff float64
	const trials = 20
	for seed := uint64(0); seed < trials; seed++ {
		mlEff += run(t, ml, seed).Efficiency()
		crEff += run(t, cr, seed).Efficiency()
	}
	if mlEff <= crEff {
		t.Errorf("multilevel (%v) did not beat checkpoint restart (%v) over %d trials",
			mlEff/trials, crEff/trials, trials)
	}
}

func TestRedundancyAbsorbsFirstReplicaFailure(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.A32, 10000)
	x := mustExecutor(t, core.FullRedundancy, app, cfg, model)
	if x.PhysicalNodes() != 20000 {
		t.Errorf("full redundancy occupies %d nodes, want 20000", x.PhysicalNodes())
	}
	res := run(t, x, 9)
	if !res.Completed {
		t.Fatalf("redundancy run did not complete: %v", res)
	}
	// With full duplication, most failures must be absorbed: a rollback
	// needs two hits on the same virtual node within one checkpoint
	// interval, which is rare at these rates.
	if res.Failures == 0 {
		t.Fatal("expected failures on a 20000-node day-long run")
	}
	if res.Rollbacks*10 > res.Failures {
		t.Errorf("too many rollbacks for full redundancy: %d of %d failures",
			res.Rollbacks, res.Failures)
	}
}

func TestPartialRedundancyRollsBackMoreThanFull(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.A32, 20000)
	partial := mustExecutor(t, core.PartialRedundancy, app, cfg, model)
	full := mustExecutor(t, core.FullRedundancy, app, cfg, model)
	if partial.PhysicalNodes() != 30000 {
		t.Errorf("partial redundancy occupies %d nodes, want 30000", partial.PhysicalNodes())
	}
	var pr, fr int
	const trials = 20
	for seed := uint64(0); seed < trials; seed++ {
		pr += run(t, partial, seed).Rollbacks
		fr += run(t, full, seed).Rollbacks
	}
	if pr <= fr {
		t.Errorf("partial redundancy should roll back more often than full: %d vs %d", pr, fr)
	}
}

func TestRedundancyBlockedWhenTooLarge(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	// 75% of the machine at r=2 needs 150% of the machine.
	app := testApp(workload.A32, 90000)
	x := mustExecutor(t, core.FullRedundancy, app, cfg, model)
	if ok, reason := x.Viable(); ok || !strings.Contains(reason, "machine has") {
		t.Errorf("oversized replica set should be blocked, got ok=%v reason=%q", ok, reason)
	}
	res := run(t, x, 1)
	if res.Efficiency() != 0 {
		t.Errorf("blocked redundancy run has efficiency %v", res.Efficiency())
	}
	// r=1.5 at 60% needs 90%: viable.
	app2 := testApp(workload.A32, 72000)
	x2 := mustExecutor(t, core.PartialRedundancy, app2, cfg, model)
	if ok, _ := x2.Viable(); !ok {
		t.Error("r=1.5 at 60% of the machine should fit")
	}
}

func TestEfficiencyDecreasesWithSize(t *testing.T) {
	// The headline trend of Figure 1: every technique loses efficiency as
	// the application grows.
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	for _, tech := range []core.Technique{core.CheckpointRestart, core.MultilevelCheckpoint, core.ParallelRecovery} {
		avg := func(nodes int) float64 {
			app := testApp(workload.C64, nodes)
			x := mustExecutor(t, tech, app, cfg, model)
			var sum float64
			const trials = 15
			for seed := uint64(0); seed < trials; seed++ {
				sum += run(t, x, seed).Efficiency()
			}
			return sum / trials
		}
		small, large := avg(1200), avg(120000)
		if small <= large {
			t.Errorf("%v: efficiency did not decrease with size (1%%: %v, 100%%: %v)",
				tech, small, large)
		}
	}
}

func TestEfficiencyDecreasesWithMTBF(t *testing.T) {
	// Figure 3's premise: less reliable components degrade every technique.
	app := testApp(workload.C64, 30000)
	avg := func(mtbf units.Duration) float64 {
		cfg := machine.Exascale().WithMTBF(mtbf)
		model := defaultModel(cfg)
		x, err := New(core.MultilevelCheckpoint, app, cfg, model, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		const trials = 15
		for seed := uint64(0); seed < trials; seed++ {
			horizon := units.Duration(200 * float64(app.Baseline()))
			sum += NewRuntime(nil).Run(x, 0, horizon, rng.New(seed)).Efficiency()
		}
		return sum / trials
	}
	if high, low := avg(10*units.Year), avg(units.Duration(2.5)*units.Year); high <= low {
		t.Errorf("efficiency at 10y MTBF (%v) should exceed 2.5y (%v)", high, low)
	}
}

func TestHorizonTruncation(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.A32, 1200)
	x := mustExecutor(t, core.CheckpointRestart, app, cfg, model)
	// Horizon far below the baseline: the run cannot complete.
	res := NewRuntime(nil).Run(x, 0, app.Baseline()/2, rng.New(1))
	if res.Completed {
		t.Error("run completed despite an impossible horizon")
	}
	if res.End != app.Baseline()/2 {
		t.Errorf("incomplete run should end at the horizon, got %v", res.End)
	}
}

func TestRunStartOffset(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.B32, 1200)
	x := mustExecutor(t, core.ParallelRecovery, app, cfg, model)
	start := 5000 * units.Minute
	res := NewRuntime(nil).Run(x, start, start+units.Duration(100*float64(app.Baseline())), rng.New(2))
	if !res.Completed {
		t.Fatalf("offset run did not complete: %v", res)
	}
	if res.Start != start || res.End <= start {
		t.Errorf("offset run has start %v end %v", res.Start, res.End)
	}
}

func TestResultString(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.B32, 1200)
	x := mustExecutor(t, core.ParallelRecovery, app, cfg, model)
	res := run(t, x, 1)
	if s := res.String(); !strings.Contains(s, "completed") {
		t.Errorf("completed result renders as %q", s)
	}
	blocked := Result{Technique: core.FullRedundancy, Blocked: "too big"}
	if s := blocked.String(); !strings.Contains(s, "too big") {
		t.Errorf("blocked result renders as %q", s)
	}
}

func TestIdealExecutor(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.C64, 30000)
	x := mustExecutor(t, core.Ideal, app, cfg, model)
	if ok, _ := x.Viable(); !ok {
		t.Fatal("ideal executor must always be viable")
	}
	res := NewRuntime(nil).Run(x, 100, 1e9, rng.New(1))
	if !res.Completed {
		t.Fatalf("ideal run incomplete: %v", res)
	}
	if res.Makespan() != app.Baseline() {
		t.Errorf("ideal makespan %v, want exactly the baseline %v", res.Makespan(), app.Baseline())
	}
	if res.Efficiency() != 1 {
		t.Errorf("ideal efficiency %v, want 1", res.Efficiency())
	}
	if res.Failures != 0 || res.TotalCheckpoints() != 0 {
		t.Error("ideal run recorded failures or checkpoints")
	}
	// Horizon truncation still applies.
	short := NewRuntime(nil).Run(x, 0, app.Baseline()/2, rng.New(1))
	if short.Completed || short.End != app.Baseline()/2 {
		t.Errorf("ideal run cut at its horizon reports %+v", short)
	}
}

// TestPooledReuseMatchesFreshAcrossTechniques: a Runtime's run state must
// not leak from one run into the next. One Runtime runs every technique
// at a failure-heavy operating point, each through two dirtying runs with
// failures, with the Ideal baseline in between and a larger redundancy
// executor (its failure marks cover more nodes) before a smaller one. A
// leaked multilevel counter or surviving checkpoint, a ReStore holder
// loss, a redundancy failure mark or a TeaMPI re-sync would then show:
// afterwards each technique's reference seed must give exactly the Result
// of a fresh Runtime.
func TestPooledReuseMatchesFreshAcrossTechniques(t *testing.T) {
	cfg := machine.Exascale().WithMTBF(units.Duration(2.5) * units.Year)
	model := defaultModel(cfg)
	app := testApp(workload.C64, 12000)
	const refSeed, dirtySeed = 101, 202
	horizon := units.Duration(200 * float64(app.Baseline()))

	ideal := mustExecutor(t, core.Ideal, app, cfg, model)
	bigger := mustExecutor(t, core.FullRedundancy, testApp(workload.C64, 30000), cfg, model)
	dirty := NewRuntime(nil)
	var execs []*Executor
	for _, tech := range core.Techniques() {
		x := mustExecutor(t, tech, app, cfg, model)
		if ok, _ := x.Viable(); !ok {
			t.Fatalf("%v not viable at the test operating point", tech)
		}
		execs = append(execs, x)
		if tech == core.PartialRedundancy {
			dirty.Run(bigger, 0, horizon, rng.New(dirtySeed))
		}
		d1 := dirty.Run(x, 0, horizon, rng.New(dirtySeed))
		dirty.Run(ideal, 0, horizon, rng.New(dirtySeed))
		dirty.Run(x, 0, horizon, rng.New(dirtySeed+1))
		if d1.Failures == 0 {
			t.Errorf("%v: dirtying run saw no failures; test exercises nothing", tech)
		}
		switch tech {
		case core.PartialRedundancy, core.FullRedundancy, core.LightweightReplication:
			// Replica failure marks and re-syncs are dirtied by every
			// failure; rollbacks are intentionally rare here.
		default:
			if d1.Rollbacks == 0 {
				t.Errorf("%v: dirtying run saw no rollbacks; test exercises nothing", tech)
			}
		}
	}
	for _, x := range execs {
		want := NewRuntime(nil).Run(x, 0, horizon, rng.New(refSeed))
		if got := dirty.Run(x, 0, horizon, rng.New(refSeed)); got != want {
			t.Errorf("%v: reused Runtime diverged from a fresh one:\n fresh: %+v\n reused: %+v",
				x.Technique(), want, got)
		}
	}
}

// TestClonedExecutorsMatch: an Executor holds nothing a run writes, so a
// copy of its value is a whole clone, and a Runtime keys nothing on which
// Executor it runs: the original and its copy give the same Result.
func TestClonedExecutorsMatch(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.D64, 30000)
	for _, tech := range core.Techniques() {
		x := mustExecutor(t, tech, app, cfg, model)
		y := *x
		a := run(t, x, 77)
		b := run(t, &y, 77)
		if a != b {
			t.Errorf("%v: clone diverged from original", tech)
		}
	}
}

func TestSemiBlockingCheckpointsOverlapWork(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.C64, 30000)

	blocking := mustExecutor(t, core.CheckpointRestart, app, cfg, model)
	semiOpts := DefaultConfig()
	semiOpts.CheckpointComputeRate = 0.5
	semi, err := New(core.CheckpointRestart, app, cfg, model, semiOpts)
	if err != nil {
		t.Fatal(err)
	}

	var bSum, sSum float64
	var overlapped units.Duration
	const trials = 20
	for seed := uint64(0); seed < trials; seed++ {
		b := run(t, blocking, seed)
		s := run(t, semi, seed)
		if !b.Completed || !s.Completed {
			t.Fatalf("runs incomplete at seed %d", seed)
		}
		bSum += b.Makespan().Minutes()
		sSum += s.Makespan().Minutes()
		overlapped += s.OverlappedWork
		if b.OverlappedWork != 0 {
			t.Fatal("blocking run reported overlapped work")
		}
		// Decomposition with overlap (at recovery speed 1): total compute
		// wall time is gross progress earned in compute phases, i.e.
		// effective work plus every lost minute re-earned, minus whatever
		// was earned inside checkpoint writes.
		reconstructed := s.EffectiveWork + s.LostWork - s.OverlappedWork +
			s.CheckpointTime + s.RestartTime
		if math.Abs(float64(s.Makespan()-reconstructed)) > 1e-6 {
			t.Fatalf("semi-blocking decomposition off: makespan %v vs %v",
				s.Makespan(), reconstructed)
		}
	}
	if overlapped <= 0 {
		t.Fatal("semi-blocking runs earned no overlapped work")
	}
	if sSum >= bSum {
		t.Errorf("semi-blocking mean makespan (%v) should beat blocking (%v)",
			sSum/trials, bSum/trials)
	}
}

func TestSemiBlockingValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.CheckpointComputeRate = 1.0
	if err := bad.Validate(); err == nil {
		t.Error("compute rate 1.0 accepted (checkpoint would never bound work)")
	}
	bad.CheckpointComputeRate = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("negative compute rate accepted")
	}
}

func TestPost2017ConfigValidation(t *testing.T) {
	// The post-2017 knobs follow the defaulting-audit pattern: the zero
	// value selects the documented default, values inside the model's
	// validity range pass, and anything outside is rejected with an error
	// naming the parameter.
	mutate := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	cases := []struct {
		name   string
		cfg    Config
		wantOK bool
	}{
		{"default", DefaultConfig(), true},
		{"zero degree defaults", mutate(func(c *Config) { c.ReStoreDegree = 0 }), true},
		{"high degree", mutate(func(c *Config) { c.ReStoreDegree = 5 }), true},
		{"negative degree", mutate(func(c *Config) { c.ReStoreDegree = -1 }), false},
		{"zero sync penalty", mutate(func(c *Config) { c.TeamSyncPenalty = 0 }), true},
		{"near-unit sync penalty", mutate(func(c *Config) { c.TeamSyncPenalty = 0.99 }), true},
		{"negative sync penalty", mutate(func(c *Config) { c.TeamSyncPenalty = -0.1 }), false},
		{"unit sync penalty", mutate(func(c *Config) { c.TeamSyncPenalty = 1.0 }), false},
		{"excess sync penalty", mutate(func(c *Config) { c.TeamSyncPenalty = 1.5 }), false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.wantOK && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.wantOK && err == nil {
			t.Errorf("%s: accepted, want an error", tc.name)
		}
	}
	if got := (Config{}).ReStoreReplicas(); got != 2 {
		t.Errorf("zero-value replica degree resolved to %d, want the default 2", got)
	}
	if got := mutate(func(c *Config) { c.ReStoreDegree = 4 }).ReStoreReplicas(); got != 4 {
		t.Errorf("explicit replica degree resolved to %d, want 4", got)
	}
	// New must refuse the out-of-range parameters end to end.
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	app := testApp(workload.C64, 12000)
	bad := mutate(func(c *Config) { c.ReStoreDegree = -2 })
	if _, err := New(core.InMemoryReplicatedCheckpoint, app, cfg, model, bad); err == nil {
		t.Error("New accepted a negative replica degree")
	}
	bad = mutate(func(c *Config) { c.TeamSyncPenalty = 1.0 })
	if _, err := New(core.LightweightReplication, app, cfg, model, bad); err == nil {
		t.Error("New accepted a sync penalty of 1.0")
	}
}

func TestSemiBlockingSnapshotSemantics(t *testing.T) {
	// The committed checkpoint must hold the progress at checkpoint START:
	// simulate with a huge failure rate so rollbacks are frequent, and
	// verify the run still completes with sane counters (a wrong snapshot
	// that included overlapped work would let efficiency exceed its bound
	// or break the decomposition).
	cfg := machine.Exascale().WithMTBF(2 * units.Year)
	model := defaultModel(cfg)
	app := testApp(workload.C32, 30000)
	opts := DefaultConfig()
	opts.CheckpointComputeRate = 0.7
	x, err := New(core.CheckpointRestart, app, cfg, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 10; seed++ {
		res := run(t, x, seed)
		if !res.Completed {
			continue
		}
		if res.Efficiency() > 1 {
			t.Fatalf("efficiency %v above 1", res.Efficiency())
		}
		reconstructed := res.EffectiveWork + res.LostWork - res.OverlappedWork +
			res.CheckpointTime + res.RestartTime
		if math.Abs(float64(res.Makespan()-reconstructed)) > 1e-6 {
			t.Fatalf("decomposition broke under failures: %v vs %v", res.Makespan(), reconstructed)
		}
	}
}

// TestConstructionBytesIndependentOfAppSize: building an executor
// allocates no more bytes for an app that fills the exascale machine (with
// its replicas, for the redundancy and two-team techniques) than for one
// on 1% of it, for every technique. Per-node state lives in the Runtime,
// paid by the runs that need it, not by the executor.
func TestConstructionBytesIndependentOfAppSize(t *testing.T) {
	cfg := machine.Exascale()
	model := defaultModel(cfg)
	bytesPerBuild := func(tech core.Technique, nodes int) (uint64, *Executor) {
		app := workload.App{Class: workload.D64, TimeSteps: 1440, Nodes: nodes}
		build := func() *Executor {
			x, err := New(tech, app, cfg, model, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return x
		}
		x := build() // the first build may warm caches that later ones reuse
		const n = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n, x
	}
	for _, tech := range core.Techniques() {
		small, x := bytesPerBuild(tech, cfg.NodesForFraction(0.01))
		whole, y := bytesPerBuild(tech, cfg.Nodes*x.App().Nodes/x.PhysicalNodes())
		if ok, why := y.Viable(); !ok || y.PhysicalNodes() != cfg.Nodes {
			t.Fatalf("%v: the whole-machine app occupies %d of %d nodes (viable %v: %s)", tech, y.PhysicalNodes(), cfg.Nodes, ok, why)
		}
		if whole > small {
			t.Errorf("%v: construction allocates %d B on the whole machine, %d B on 1%% of it", tech, whole, small)
		}
	}
}

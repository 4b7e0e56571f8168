package exaresil

import (
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/units"
)

func TestNewDefaults(t *testing.T) {
	sim, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if sim.Machine().Nodes != 120000 {
		t.Errorf("default machine has %d nodes, want 120000", sim.Machine().Nodes)
	}
}

func TestNewOptions(t *testing.T) {
	sim, err := New(
		WithMachine(SunwayTaihuLight()),
		WithMTBF(5*units.Year),
		WithRecoverySpeedup(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Machine().Nodes != 40960 {
		t.Errorf("machine option ignored: %d nodes", sim.Machine().Nodes)
	}
	if sim.Machine().MTBF != 5*units.Year {
		t.Errorf("MTBF option ignored: %v", sim.Machine().MTBF)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(WithMachine(Machine{})); err == nil {
		t.Error("invalid machine accepted")
	}
	if _, err := New(WithRecoverySpeedup(0)); err == nil {
		t.Error("invalid recovery speedup accepted")
	}
	if _, err := New(WithSeverityPMF(SeverityPMF{})); err == nil {
		t.Error("zero severity PMF accepted")
	}
}

func TestRunAppQuickstartPath(t *testing.T) {
	sim, err := New()
	if err != nil {
		t.Fatal(err)
	}
	app := App{Class: ClassC64, TimeSteps: 720, Nodes: 12000}
	res, err := sim.RunApp(MultilevelCheckpoint, app, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("quickstart run did not complete: %v", res)
	}
	if eff := res.Efficiency(); eff <= 0.5 || eff > 1 {
		t.Errorf("efficiency %v implausible for a 10%% app", eff)
	}
}

func TestStudy(t *testing.T) {
	sim, err := New()
	if err != nil {
		t.Fatal(err)
	}
	app := App{Class: ClassA32, TimeSteps: 360, Nodes: 1200}
	st, err := sim.Study(ParallelRecovery, app, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Efficiency.N != 16 {
		t.Errorf("study ran %d trials, want 16", st.Efficiency.N)
	}
	if _, err := sim.Study(ParallelRecovery, app, 0, 2); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := sim.Study(Technique(99), app, 4, 2); err == nil {
		t.Error("unknown technique accepted")
	}
}

func TestClusterPath(t *testing.T) {
	sim, err := New()
	if err != nil {
		t.Fatal(err)
	}
	pattern := sim.GeneratePattern(PatternSpec{Arrivals: 15, FillSystem: true}, 3)
	m, err := sim.RunCluster(SlackBased, ParallelRecovery, pattern, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != len(pattern.Apps) {
		t.Errorf("cluster resolved %d apps, pattern has %d", m.Total, len(pattern.Apps))
	}
}

func TestSelectorPath(t *testing.T) {
	sim, err := New()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := sim.BuildSelector(SelectorOptions{
		Trials:        4,
		TimeSteps:     360,
		SizeFractions: []float64{0.01, 0.25},
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pattern := sim.GeneratePattern(PatternSpec{Arrivals: 10}, 4)
	m, err := sim.RunClusterWithSelector(SlackBased, sel, pattern, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != 10 {
		t.Errorf("selector cluster resolved %d apps, want 10", m.Total)
	}
	if _, err := sim.RunClusterWithSelector(SlackBased, nil, pattern, 4); err == nil {
		t.Error("nil selector accepted")
	}
}

func TestEnumerationsExported(t *testing.T) {
	if len(Classes()) != 8 {
		t.Error("Classes() should list 8 Table I classes")
	}
	if len(Techniques()) != 7 {
		t.Error("Techniques() should list 7 technique variants")
	}
	if InMemoryReplicatedCheckpoint != core.InMemoryReplicatedCheckpoint ||
		LightweightReplication != core.LightweightReplication {
		t.Error("post-2017 technique aliases should match core")
	}
	if len(Schedulers()) != 3 {
		t.Error("Schedulers() should list 3 heuristics")
	}
}

func TestExtensionFacade(t *testing.T) {
	sim, err := New(WithWeibullFailures(0.8))
	if err != nil {
		t.Fatal(err)
	}
	app := App{Class: ClassC64, TimeSteps: 360, Nodes: 12000}

	// Analytic prediction agrees in rough magnitude with a short study.
	predicted, err := sim.PredictEfficiency(MultilevelCheckpoint, app)
	if err != nil {
		t.Fatal(err)
	}
	if predicted <= 0.5 || predicted > 1 {
		t.Errorf("predicted efficiency %v implausible", predicted)
	}

	// Energy accounting through the facade, on a traced run that must
	// replay RunApp's result exactly.
	x, err := sim.Executor(CheckpointRestart, app)
	if err != nil {
		t.Fatal(err)
	}
	rec := &TraceRecorder{}
	res, err := sim.TraceApp(CheckpointRestart, app, 5, rec.Observe)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Error("traced CR run recorded no events")
	}
	if plain, err := sim.RunApp(CheckpointRestart, app, 5); err != nil || plain != res {
		t.Errorf("RunApp gave %+v (%v), TraceApp %+v", plain, err, res)
	}
	eb, err := sim.EnergyOf(res, x.PhysicalNodes(), DefaultPowerModel())
	if err != nil {
		t.Fatal(err)
	}
	if eb.Total <= 0 {
		t.Error("non-positive energy")
	}

	// Backfill scheduler through the facade.
	pattern := sim.GeneratePattern(PatternSpec{Arrivals: 10, FillSystem: true}, 6)
	if _, err := sim.RunCluster(EASYBackfill, ParallelRecovery, pattern, 6); err != nil {
		t.Fatal(err)
	}
	if len(AllSchedulers()) != 4 {
		t.Error("AllSchedulers should include the backfill extension")
	}

	// Analytic selector drives a cluster run.
	sel, err := sim.BuildAnalyticSelector(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunClusterWithChooser(SlackBased, sel.Choose, pattern, 6); err != nil {
		t.Fatal(err)
	}
}

func TestWeibullOptionValidation(t *testing.T) {
	if _, err := New(WithWeibullFailures(0)); err == nil {
		t.Error("zero Weibull shape accepted")
	}
}

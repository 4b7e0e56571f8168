package check

import (
	"strings"
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/stats"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// TestCheckerAcceptsRealTraces runs every technique at a failure-heavy
// operating point under the checker: genuine engine traces must satisfy
// every invariant.
func TestCheckerAcceptsRealTraces(t *testing.T) {
	cfg := machine.Exascale().WithMTBF(units.Duration(2.5) * units.Year)
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	app := workload.App{Class: workload.C64, TimeSteps: 1440, Nodes: 12000}
	for _, tech := range core.Techniques() {
		x, err := resilience.New(tech, app, cfg, model, resilience.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c := NewChecker(x)
		rt := resilience.NewRuntime(nil)
		rt.Observer = c.Observe
		for trial := uint64(0); trial < 8; trial++ {
			c.BeginRun("trial")
			res := rt.Run(x, 0, units.Duration(float64(app.Baseline())*100), rng.Stream(7, trial))
			c.FinishRun(res)
		}
		for _, v := range c.Violations() {
			t.Errorf("%v: %s", tech, v)
		}
	}
}

// TestCheckerAcceptsTruncatedRuns covers horizon-truncated (incomplete)
// executions, which end mid-phase.
func TestCheckerAcceptsTruncatedRuns(t *testing.T) {
	cfg := machine.Exascale().WithMTBF(units.Duration(2.5) * units.Year)
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	app := workload.App{Class: workload.D64, TimeSteps: 1440, Nodes: cfg.Nodes}
	x, err := resilience.New(core.CheckpointRestart, app, cfg, model, resilience.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(x)
	rt := resilience.NewRuntime(nil)
	rt.Observer = c.Observe
	c.BeginRun("truncated")
	res := rt.Run(x, 0, units.Duration(float64(app.Baseline())*3), rng.New(1))
	if res.Completed {
		t.Fatal("expected a truncated run at exascale/2.5y")
	}
	c.FinishRun(res)
	for _, v := range c.Violations() {
		t.Error(v)
	}
}

// synthetic builds a checker for hand-crafted event streams.
func synthetic(t *testing.T, tech core.Technique) *Checker {
	t.Helper()
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	app := workload.App{Class: workload.C64, TimeSteps: 1000, Nodes: 1200}
	x, err := resilience.New(tech, app, cfg, model, resilience.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(x)
	c.BeginRun("synthetic")
	return c
}

func ev(kind resilience.TraceKind, at, progress units.Duration) resilience.TraceEvent {
	return resilience.TraceEvent{Kind: kind, Time: at, Progress: progress}
}

func wantViolation(t *testing.T, c *Checker, substr string) {
	t.Helper()
	for _, v := range c.Violations() {
		if strings.Contains(v.Msg, substr) {
			return
		}
	}
	t.Errorf("no violation containing %q; got %v", substr, c.Violations())
}

func TestCheckerFlagsTimeBackwards(t *testing.T) {
	c := synthetic(t, core.CheckpointRestart)
	c.Observe(ev(resilience.TraceStart, 100, 0))
	c.Observe(ev(resilience.TraceFailure, 50, 10))
	wantViolation(t, c, "time ran backwards")
}

func TestCheckerFlagsProgressBackwards(t *testing.T) {
	c := synthetic(t, core.CheckpointRestart)
	c.Observe(ev(resilience.TraceStart, 0, 0))
	ck := ev(resilience.TraceCheckpointStart, 60, 60)
	ck.Level = 3
	c.Observe(ck)
	ck.Kind = resilience.TraceCheckpointEnd
	ck.Time = 70
	c.Observe(ck)
	// Progress drops without any rollback in between.
	next := ev(resilience.TraceCheckpointStart, 100, 30)
	next.Level = 3
	c.Observe(next)
	wantViolation(t, c, "progress ran backwards")
}

func TestCheckerFlagsRestoreAboveCheckpoint(t *testing.T) {
	c := synthetic(t, core.CheckpointRestart)
	c.Observe(ev(resilience.TraceStart, 0, 0))
	ck := ev(resilience.TraceCheckpointStart, 60, 60)
	ck.Level = 3
	c.Observe(ck)
	ck.Kind = resilience.TraceCheckpointEnd
	ck.Time = 75
	c.Observe(ck)
	fail := ev(resilience.TraceFailure, 100, 80)
	fail.Severity = failures.SeverityNodeLoss
	fail.Rollback = true
	c.Observe(fail)
	// Restores to 80 — above the committed snapshot of 60.
	restart := ev(resilience.TraceRestartEnd, 110, 80)
	restart.Level = 3
	c.Observe(restart)
	wantViolation(t, c, "want committed checkpoint")
}

func TestCheckerFlagsResurrectedCheckpoint(t *testing.T) {
	// Multilevel: a severity-2 failure destroys the level-1 checkpoint;
	// restoring from it afterwards is a resurrection.
	c := synthetic(t, core.MultilevelCheckpoint)
	c.Observe(ev(resilience.TraceStart, 0, 0))
	ck := ev(resilience.TraceCheckpointStart, 30, 30)
	ck.Level = 1
	c.Observe(ck)
	ck.Kind = resilience.TraceCheckpointEnd
	ck.Time = 31
	c.Observe(ck)
	fail := ev(resilience.TraceFailure, 40, 40)
	fail.Severity = failures.SeverityNodeLoss
	fail.Rollback = true
	c.Observe(fail)
	restart := ev(resilience.TraceRestartEnd, 50, 30)
	restart.Level = 1
	c.Observe(restart)
	wantViolation(t, c, "severity")
}

func TestCheckerFlagsScratchRestartWithProgress(t *testing.T) {
	c := synthetic(t, core.MultilevelCheckpoint)
	c.Observe(ev(resilience.TraceStart, 0, 0))
	fail := ev(resilience.TraceFailure, 40, 40)
	fail.Severity = failures.SeverityTransient
	fail.Rollback = true
	c.Observe(fail)
	restart := ev(resilience.TraceRestartEnd, 50, 25)
	restart.Level = 0
	c.Observe(restart)
	wantViolation(t, c, "from-scratch restart resumed")
}

func TestCheckerFlagsWrongLevelForTechnique(t *testing.T) {
	c := synthetic(t, core.ParallelRecovery)
	c.Observe(ev(resilience.TraceStart, 0, 0))
	ck := ev(resilience.TraceCheckpointStart, 30, 30)
	ck.Level = 3 // PR checkpoints live in remote memory (level 2)
	c.Observe(ck)
	wantViolation(t, c, "outside the technique's hierarchy")
}

func TestCheckerFlagsResultMismatch(t *testing.T) {
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	app := workload.App{Class: workload.B32, TimeSteps: 1440, Nodes: 1200}
	x, err := resilience.New(core.CheckpointRestart, app, cfg, model, resilience.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(x)
	rt := resilience.NewRuntime(nil)
	rt.Observer = c.Observe
	c.BeginRun("doctored")
	res := rt.Run(x, 0, units.Duration(float64(app.Baseline())*100), rng.New(3))
	doctored := res
	doctored.Failures++
	doctored.Checkpoints[3]++
	c.FinishRun(doctored)
	wantViolation(t, c, "failures")
	wantViolation(t, c, "checkpoints")
}

func TestCheckerFlagsCompletionShortfall(t *testing.T) {
	c := synthetic(t, core.CheckpointRestart)
	c.Observe(ev(resilience.TraceStart, 0, 0))
	c.Observe(ev(resilience.TraceComplete, 900, 900))
	c.FinishRun(resilience.Result{
		Technique:     core.CheckpointRestart,
		Completed:     true,
		End:           900,
		Baseline:      1000 * units.Minute,
		EffectiveWork: 1000 * units.Minute,
	})
	wantViolation(t, c, "want effective work")
}

// TestSweepSmallGridClean is the harness's own conformance smoke: a small
// grid must produce zero conformance failures, zero invariant violations,
// and zero metamorphic failures.
func TestSweepSmallGridClean(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is Monte-Carlo heavy")
	}
	s := Sweep{
		MTBFs:     []units.Duration{10 * units.Year},
		Classes:   []workload.Class{workload.A32, workload.D64},
		Fractions: []float64{0.01, 0.10},
		Trials:    15,
		Workers:   4,
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		var b strings.Builder
		rep.Write(&b)
		t.Fatalf("audit not clean:\n%s", b.String())
	}
	if len(rep.Cells) != 1*2*2*7 {
		t.Errorf("expected 28 cells, got %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Sim.N != 15 {
			t.Errorf("%s: %d trials, want 15", c.Label(), c.Sim.N)
		}
	}
}

func TestVerdictCollapseRegime(t *testing.T) {
	s := DefaultSweep()
	// Both collapsed: residuals may differ arbitrarily within the regime.
	c := Cell{Viable: true, Analytic: 0, Sim: statsSummary(0.03, 0.001)}
	if ok, detail := s.verdict(c); !ok {
		t.Errorf("collapsed pair flagged: %s", detail)
	}
	// Analytic collapsed but the simulator is healthy: a real divergence.
	c = Cell{Viable: true, Analytic: 0, Sim: statsSummary(0.8, 0.001)}
	if ok, _ := s.verdict(c); ok {
		t.Error("healthy sim vs collapsed analytic passed")
	}
	// Non-viable cell: analytic must agree the regime is dead.
	c = Cell{Viable: false, Analytic: 0.9}
	if ok, _ := s.verdict(c); ok {
		t.Error("non-viable cell with healthy analytic prediction passed")
	}
	c = Cell{Viable: false, Analytic: 0}
	if ok, _ := s.verdict(c); !ok {
		t.Error("non-viable cell with collapsed analytic flagged")
	}
}

func statsSummary(mean, ci float64) stats.Summary {
	return stats.Summary{N: 30, Mean: mean, CI95: ci}
}

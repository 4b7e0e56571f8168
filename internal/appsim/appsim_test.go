package appsim

import (
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

func executor(t *testing.T, tech core.Technique, class workload.Class, nodes int) *resilience.Executor {
	t.Helper()
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	app := workload.App{ID: 0, Class: class, TimeSteps: 1440, Nodes: nodes}
	x, err := resilience.New(tech, app, cfg, model, resilience.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestRunBasicStats(t *testing.T) {
	x := executor(t, core.CheckpointRestart, workload.B32, 12000)
	st := Run(TrialSpec{Executor: x, Trials: 40, Seed: 1})
	if st.Efficiency.N != 40 {
		t.Errorf("efficiency over %d trials, want 40", st.Efficiency.N)
	}
	if st.Efficiency.Mean <= 0 || st.Efficiency.Mean > 1 {
		t.Errorf("mean efficiency %v outside (0,1]", st.Efficiency.Mean)
	}
	if st.CompletionRate != 1 {
		t.Errorf("completion rate %v, want 1 for a 10%% app at 10y MTBF", st.CompletionRate)
	}
	if st.Makespan.Mean < 1440 {
		t.Errorf("mean makespan %v below baseline 1440", st.Makespan.Mean)
	}
	if st.Checkpoints.Mean <= 0 {
		t.Error("no checkpoints recorded")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	// The whole point of numbered substreams plus slot-ordered
	// aggregation: results must be bit-identical for any parallelism.
	base := Run(TrialSpec{Executor: executor(t, core.ParallelRecovery, workload.C64, 6000), Trials: 24, Seed: 7, Workers: 1})
	para := Run(TrialSpec{Executor: executor(t, core.ParallelRecovery, workload.C64, 6000), Trials: 24, Seed: 7, Workers: 8})
	if base != para {
		t.Errorf("study differs across worker counts:\n 1 worker: %+v\n 8 workers: %+v", base, para)
	}
}

func TestRunRepeatedCallsIdentical(t *testing.T) {
	// Re-running the same spec on the same executor must replay exactly:
	// executors (and their pooled simulators) are stateless between runs.
	x := executor(t, core.MultilevelCheckpoint, workload.D64, 12000)
	a := Run(TrialSpec{Executor: x, Trials: 12, Seed: 11})
	b := Run(TrialSpec{Executor: x, Trials: 12, Seed: 11})
	if a != b {
		t.Errorf("repeated study differs:\n first: %+v\n second: %+v", a, b)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a := Run(TrialSpec{Executor: executor(t, core.CheckpointRestart, workload.C64, 30000), Trials: 10, Seed: 1})
	b := Run(TrialSpec{Executor: executor(t, core.CheckpointRestart, workload.C64, 30000), Trials: 10, Seed: 2})
	if a.Efficiency.Mean == b.Efficiency.Mean && a.Failures.Mean == b.Failures.Mean {
		t.Error("different seeds produced identical studies")
	}
}

func TestRunNonViableExecutor(t *testing.T) {
	// r=2.0 on 75% of the machine cannot be placed.
	x := executor(t, core.FullRedundancy, workload.A32, 90000)
	st := Run(TrialSpec{Executor: x, Trials: 10, Seed: 1})
	if st.Efficiency.Mean != 0 || st.Efficiency.StdDev != 0 {
		t.Errorf("non-viable study should report zero efficiency, got %v", st.Efficiency)
	}
	if st.CompletionRate != 0 {
		t.Errorf("non-viable study completion rate %v", st.CompletionRate)
	}
	if st.Efficiency.N != 10 {
		t.Errorf("non-viable study should still report n=10, got %d", st.Efficiency.N)
	}
}

func TestRunPanicsOnZeroTrials(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero trials")
		}
	}()
	Run(TrialSpec{Executor: executor(t, core.CheckpointRestart, workload.A32, 1200)})
}

func TestHorizonFactorCapsRunaways(t *testing.T) {
	// At 2.5y MTBF, an exascale CR app cannot progress; a tight horizon
	// keeps the study finite and scores it zero.
	cfg := machine.Exascale().WithMTBF(units25())
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	app := workload.App{ID: 0, Class: workload.D64, TimeSteps: 1440, Nodes: cfg.Nodes}
	x, err := resilience.New(core.CheckpointRestart, app, cfg, model, resilience.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := Run(TrialSpec{Executor: x, Trials: 4, Seed: 3, HorizonFactor: 5})
	if st.CompletionRate > 0.5 {
		t.Errorf("completion rate %v; expected near-total failure to complete", st.CompletionRate)
	}
}

// units25 is 2.5 years expressed in simulation time.
func units25() units.Duration { return units.Duration(2.5) * units.Year }

func TestAntitheticOddTrialsLeaveLastUnpaired(t *testing.T) {
	// An odd Antithetic trial count must run: pairs (0,1) and (2,3) plus
	// trial 4 as the unmirrored half of substream 2, nothing dropped or
	// double-counted. The manual replay below is the documented stream
	// derivation; Run must match it bit for bit.
	x := executor(t, core.CheckpointRestart, workload.C64, 30000)
	got := Run(TrialSpec{Executor: x, Trials: 5, Seed: 3, Cell: 9, Antithetic: true, Workers: 1})
	if got.Efficiency.N != 5 {
		t.Fatalf("efficiency over %d trials, want 5", got.Efficiency.N)
	}

	horizon := units.Duration(DefaultHorizonFactor * float64(x.App().Baseline()))
	rt := resilience.NewRuntime(nil)
	var eff stats.Accumulator
	var src rng.Source
	for trial := 0; trial < 5; trial++ {
		src.SetSubStream(3, 9, uint64(trial)/2)
		src.SetMirror(trial%2 == 1)
		eff.Add(rt.Run(x, 0, horizon, &src).Efficiency())
	}
	if want := eff.Summarize(); got.Efficiency != want {
		t.Errorf("odd antithetic study %+v differs from manual replay %+v", got.Efficiency, want)
	}

	// Worker-count invariance must survive the unpaired tail too.
	para := Run(TrialSpec{Executor: executor(t, core.CheckpointRestart, workload.C64, 30000),
		Trials: 5, Seed: 3, Cell: 9, Antithetic: true, Workers: 8})
	if got != para {
		t.Errorf("odd antithetic study differs across worker counts:\n 1 worker: %+v\n 8 workers: %+v", got, para)
	}
}

func TestAntitheticSharesDrawsAcrossExecutors(t *testing.T) {
	// Common random numbers: two studies passing the same (Seed, Cell)
	// must hand their executors identical failure draws, so two executors
	// of the same cell replay exactly.
	x := executor(t, core.MultilevelCheckpoint, workload.D64, 12000)
	a := Run(TrialSpec{Executor: x, Trials: 6, Seed: 21, Cell: 4, Antithetic: true})
	b := Run(TrialSpec{Executor: executor(t, core.MultilevelCheckpoint, workload.D64, 12000), Trials: 6, Seed: 21, Cell: 4, Antithetic: true})
	if a != b {
		t.Errorf("same (Seed, Cell) studies differ:\n first: %+v\n second: %+v", a, b)
	}
	c := Run(TrialSpec{Executor: x, Trials: 6, Seed: 21, Cell: 5, Antithetic: true})
	if a == c {
		t.Error("distinct cells produced identical studies; substreams are not cell-keyed")
	}
}

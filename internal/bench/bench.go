// Package bench is the repository's one benchmark table: every measurement
// of the simulator's layers, from one multilevel schedule evaluation to a
// reduced-scale exhibit, as a flat name and a func(*testing.B). The root
// package's `go test -bench` and cmd/exabench both iterate Table, so a
// number from either runner measures the same body. Exhibit entries run at
// a reduced statistical scale: they measure harness cost, not paper
// numbers (cmd/exasim produces those).
package bench

import (
	"sync"
	"testing"

	"exaresil"
	"exaresil/internal/analytic"
	"exaresil/internal/appsim"
	"exaresil/internal/core"
	"exaresil/internal/experiments"
	"exaresil/internal/obs"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/selection"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// Entry is one benchmark of the table.
type Entry struct {
	Name string
	Fn   func(*testing.B)
}

// Table lists every entry, exhibits first and the smallest units of work
// last. Names are stable: BENCH_results.json and exabench -baseline key
// on them.
func Table() []Entry {
	reduced := experiments.Params{Trials: 10, Patterns: 2, Arrivals: 30}
	fig5 := reduced
	fig5.Selection = selection.Options{Trials: 4, TimeSteps: 360, SizeFractions: []float64{0.01, 0.25}}
	// The _vr twins run the same grids in variance-reduced mode: antithetic
	// pattern pairs for the cluster study, and for fig5 a selector built
	// from one antithetic pair per arm under common random numbers
	// (PairedTrials: 1, half the probe runs of the fig5 entry's Trials: 4).
	// The delta against the plain entries is the cost side of the
	// variance-reduction trade documented in DESIGN.md §11.
	fig4VR := reduced
	fig4VR.Paired = true
	fig5VR := fig4VR
	fig5VR.Selection = selection.Options{PairedTrials: 1, TimeSteps: 360, SizeFractions: []float64{0.01, 0.25}}

	// The *_run entries execute C64 on a quarter of the machine (30,000
	// nodes), the ablations on half of it.
	quarter := exaresil.App{Class: exaresil.ClassC64, TimeSteps: 1440, Nodes: 30000}
	c64 := exaresil.App{Class: exaresil.ClassC64, TimeSteps: 1440, Nodes: 60000}
	a32 := exaresil.App{Class: exaresil.ClassA32, TimeSteps: 1440, Nodes: 60000}
	phi := func(v float64) func(*testing.B) {
		return executorRun(exaresil.ParallelRecovery, a32, exaresil.WithRecoverySpeedup(v))
	}
	return []Entry{
		{"table1", exhibit("table1", experiments.Params{})},
		{"table2", exhibit("table2", experiments.Params{})},
		{"fig1", exhibit("fig1", reduced)},
		{"fig2", exhibit("fig2", reduced)},
		{"fig3", exhibit("fig3", reduced)},
		// fig3_cell is one paper-scale fig3 cell (200 trials of Multilevel
		// Checkpoint on half the machine) with every other cell restored:
		// per-trial cost at the scale paper-batch runs, which the
		// reduced-scale fig1-fig3 entries, dominated by per-cell setup,
		// cannot see.
		{"fig3_cell", resumed("fig3", experiments.Params{}, 21)},
		{"fig4", exhibit("fig4", reduced)},
		// fig4_pattern is one 100-arrival fig4 pattern under all 12
		// scheduler x technique combinations: one grid cell, the unit
		// whose combinations share each application's trajectories.
		{"fig4_pattern", exhibit("fig4", experiments.Params{Patterns: 1, Arrivals: 100})},
		{"fig4_vr", exhibit("fig4", fig4VR)},
		{"fig4_metrics", fig4Metrics},
		// fig4_resume restores all but one pattern cell: the delta against
		// fig4 is what a near-complete resume saves, the service's payoff
		// for snapshotting interrupted jobs (DESIGN.md §10).
		{"fig4_resume", resumed("fig4", experiments.Params{Patterns: 2, Arrivals: 30}, 0)},
		{"fig5", exhibit("fig5", fig5)},
		{"fig5_vr", exhibit("fig5", fig5VR)},
		{"batch_analytic", batchAnalytic},
		{"cluster_run", clusterRun},
		{"cr_run", executorRun(exaresil.CheckpointRestart, quarter)},
		// trials_run is cr_run's executor under the Monte-Carlo harness on
		// every worker: its ns/op against 200 cr_run ops is the trial
		// path's parallel efficiency.
		{"trials_run", trialsRun(exaresil.CheckpointRestart, quarter)},
		{"multilevel_run", executorRun(exaresil.MultilevelCheckpoint, quarter)},
		{"executor_run", executorRun(exaresil.ParallelRecovery, quarter)},
		{"red1.5_run", executorRun(exaresil.PartialRedundancy, quarter)},
		{"red2.0_run", executorRun(exaresil.FullRedundancy, quarter)},
		// restore_run and teampi_run price the post-2017 techniques against
		// executor_run: the replica bookkeeping (ReStore), and the doubled
		// footprint with repair-window tracking (TeaMPI).
		{"restore_run", executorRun(exaresil.InMemoryReplicatedCheckpoint, quarter)},
		{"teampi_run", executorRun(exaresil.LightweightReplication, quarter)},
		// What the level hierarchy buys (DESIGN.md §4.3): the optimized
		// three-level schedule against all-PFS checkpointing.
		{"ablation_multilevel", executorRun(exaresil.MultilevelCheckpoint, c64)},
		{"ablation_pfs_only", executorRun(exaresil.CheckpointRestart, c64)},
		// How much of Parallel Recovery's advantage is parallelized rework
		// (phi) rather than cheap in-memory checkpoints.
		{"ablation_phi1", phi(1)},
		{"ablation_phi4", phi(4)},
		{"ablation_phi8", phi(8)},
		{"ablation_phi16", phi(16)},
		{"multilevel_optimizer", multilevelOptimizer},
		{"exact_markov_stretch", exactMarkovStretch},
	}
}

// exhibit benchmarks one registry exhibit, so a renamed or removed exhibit
// fails here instead of silently dropping its benchmark.
func exhibit(name string, p experiments.Params) func(*testing.B) {
	return func(b *testing.B) {
		ex := lookup(b, name)
		cfg := experiments.Default()
		for i := 0; i < b.N; i++ {
			t, _, err := ex.Run(cfg, p)
			if err != nil {
				b.Fatal(err)
			}
			if t.Rows() == 0 {
				b.Fatal("empty table")
			}
		}
	}
}

func lookup(b *testing.B, name string) experiments.Exhibit {
	ex, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("exhibit %q is not in the experiments registry", name)
	}
	return ex
}

// fig4Metrics is fig4 with an obs registry attached: the delta against
// fig4 is the enabled-metrics overhead, and fig4 itself (nil registry,
// hooks compiled in) tracks the disabled overhead.
func fig4Metrics(b *testing.B) {
	ex := lookup(b, "fig4")
	cfg := experiments.Default()
	for i := 0; i < b.N; i++ {
		cfg.Obs = obs.NewRegistry()
		t, _, err := ex.Run(cfg, experiments.Params{Patterns: 2, Arrivals: 30})
		if err != nil {
			b.Fatal(err)
		}
		if t.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// resumed benchmarks exhibit name at p with every cell but the fresh ones
// restored through the Progress hook: an untimed first run records the
// cells, once per entry, and each timed run recomputes only the fresh
// cells.
func resumed(name string, p experiments.Params, fresh ...int) func(*testing.B) {
	var once sync.Once
	var cells map[int][]float64
	var err error
	record := func(ex experiments.Exhibit) {
		var mu sync.Mutex
		cells = map[int][]float64{}
		cfg := experiments.Default()
		cfg.Progress = &experiments.Progress{OnCell: func(cell int, values []float64) {
			mu.Lock()
			cells[cell] = values
			mu.Unlock()
		}}
		_, _, err = ex.Run(cfg, p)
		for _, cell := range fresh {
			delete(cells, cell)
		}
	}
	return func(b *testing.B) {
		ex := lookup(b, name)
		once.Do(func() { record(ex) })
		if err != nil {
			b.Fatal(err)
		}
		cfg := experiments.Default()
		cfg.Progress = &experiments.Progress{Completed: cells}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t, _, err := ex.Run(cfg, p)
			if err != nil {
				b.Fatal(err)
			}
			if t.Rows() == 0 {
				b.Fatal("empty table")
			}
		}
	}
}

// batchAnalytic measures the steady-state cost of the batch analytic
// evaluator over the ext-whatif exhibit's grid shape (4 MTBFs x 7 sizes x
// 7 techniques). The evaluator is built once outside the timed loop, as the
// what-if service path reuses it, so the loop body is the pure column-pass
// Eval — expected to report zero allocs/op (the allocation-freedom test in
// internal/analytic pins that contract; this entry tracks its speed).
func batchAnalytic(b *testing.B) {
	cfg := experiments.Default()
	grid := analytic.Grid{
		Machine:    cfg.Machine,
		PMF:        cfg.SeverityPMF,
		Resilience: cfg.Resilience,
		Class:      workload.D64,
		TimeSteps:  1440,
		MTBFs: []units.Duration{
			10 * units.Year, 5 * units.Year,
			units.Duration(2.5) * units.Year, units.Year,
		},
		Techniques: core.Techniques(),
	}
	for _, frac := range experiments.DefaultScalingFractions() {
		grid.Nodes = append(grid.Nodes, cfg.Machine.NodesForFraction(frac))
	}
	ev, err := analytic.NewEvaluator(grid)
	if err != nil {
		b.Fatal(err)
	}
	ev.Eval() // warm the multilevel stretch cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eff := ev.Eval()
		if len(eff) != len(grid.MTBFs)*len(grid.Nodes)*len(grid.Techniques) {
			b.Fatal("short efficiency buffer")
		}
	}
}

// clusterRun measures one full cluster simulation, the unit of Figures 4-5.
func clusterRun(b *testing.B) {
	sim, err := exaresil.New()
	if err != nil {
		b.Fatal(err)
	}
	pattern := sim.GeneratePattern(exaresil.PatternSpec{Arrivals: 100, FillSystem: true}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCluster(exaresil.SlackBased, exaresil.ParallelRecovery, pattern, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// executorRun measures one simulated execution of app under tech per op,
// the unit of work every study multiplies, and reports the runs' mean
// efficiency.
func executorRun(tech exaresil.Technique, app exaresil.App, opts ...exaresil.Option) func(*testing.B) {
	return func(b *testing.B) {
		sim, err := exaresil.New(opts...)
		if err != nil {
			b.Fatal(err)
		}
		x, err := sim.Executor(tech, app)
		if err != nil {
			b.Fatal(err)
		}
		rt := resilience.NewRuntime(nil)
		src := rng.New(1)
		var eff float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eff += rt.Run(x, 1e9, src).Efficiency()
		}
		b.ReportMetric(eff/float64(b.N), "efficiency")
	}
}

// trialsRun measures one 200-trial Monte-Carlo study of app under tech per
// op, split across GOMAXPROCS workers (appsim's Workers: 0), and reports
// the studies' mean efficiency as executorRun does.
func trialsRun(tech exaresil.Technique, app exaresil.App) func(*testing.B) {
	return func(b *testing.B) {
		sim, err := exaresil.New()
		if err != nil {
			b.Fatal(err)
		}
		x, err := sim.Executor(tech, app)
		if err != nil {
			b.Fatal(err)
		}
		var eff float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eff += appsim.Run(appsim.TrialSpec{Executor: x, Trials: 200, Seed: 1}).Efficiency.Mean
		}
		b.ReportMetric(eff/float64(b.N), "efficiency")
	}
}

// multilevelCosts are the checkpoint costs of the multilevel entries.
var multilevelCosts = resilience.Costs{
	L1:  units.Duration(0.0033),
	L2:  units.Duration(0.0133),
	PFS: 17 * units.Minute,
}

// multilevelOptimizer measures the schedule search's amortized cost: the
// first 1000 distinct rate vectors pay the full grid search, later
// iterations hit the memoization cache — the mix a cluster study sees.
func multilevelOptimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rates := [3]units.Rate{
			units.Rate(0.0148 + float64(i%1000)*1e-9),
			0.0057,
			0.0023,
		}
		if _, err := resilience.OptimizeMultilevel(multilevelCosts, rates, resilience.DefaultMultilevelConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// exactMarkovStretch measures the O(N) Markov-chain evaluation of a
// multilevel schedule (pattern length 576, the optimizer's maximum).
func exactMarkovStretch(b *testing.B) {
	rates := [3]units.Rate{0.0148, 0.0057, 0.0023}
	sched := resilience.MultilevelSchedule{Interval: 1, L1PerL2: 24, L2PerL3: 24}
	for i := 0; i < b.N; i++ {
		if v := sched.ExactStretch(multilevelCosts, rates); v <= 1 {
			b.Fatal("implausible stretch")
		}
	}
}

package experiments

// This file holds the repository's extension studies — exhibits beyond the
// paper's own tables and figures, exercising the substrates the paper
// references but does not evaluate (energy, after the authors' companion
// study), sensitivity knobs the paper holds fixed (component MTBF sweep,
// the Poisson failure assumption), and the EASY-backfill scheduler
// extension. Each driver follows the same contract as the Figure drivers:
// a rendered table plus a structured result.

import (
	"errors"
	"fmt"

	"exaresil/internal/analytic"
	"exaresil/internal/appsim"
	"exaresil/internal/cluster"
	"exaresil/internal/core"
	"exaresil/internal/energy"
	"exaresil/internal/failures"
	"exaresil/internal/report"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/selection"
	"exaresil/internal/stats"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// EnergySpec configures the energy-overhead study: for each technique and
// application class at a fixed size, the mean energy consumed and the
// fraction that is overhead (everything but first-time compute).
type EnergySpec struct {
	Config
	// Fraction is the application size (default one quarter).
	Fraction float64
	// TimeSteps is T_S (default 1440).
	TimeSteps int
	// Trials per cell (the registry's default: 200).
	Trials int
	// Power is the node power model (default energy.Default).
	Power energy.PowerModel
}

// EnergyCell is one technique/class cell.
type EnergyCell struct {
	Technique core.Technique
	Class     workload.Class
	// TotalMWh summarizes consumed energy over completed trials.
	TotalMWh stats.Summary
	// Overhead summarizes the non-compute energy fraction.
	Overhead stats.Summary
}

// EnergyResult is the study's data set.
type EnergyResult struct {
	Cells []EnergyCell
}

// Cell finds one technique/class pair.
func (r EnergyResult) Cell(t core.Technique, class string) (EnergyCell, bool) {
	for _, c := range r.Cells {
		if c.Technique == t && c.Class.Name == class {
			return c, true
		}
	}
	return EnergyCell{}, false
}

// Run executes the energy study: one cell per (class, technique) pair,
// spread across the worker budget.
func (s EnergySpec) Run() (*report.Table, EnergyResult, error) {
	if s.Fraction == 0 {
		s.Fraction = 0.25
	}
	if s.TimeSteps == 0 {
		s.TimeSteps = 1440
	}
	if s.Power == (energy.PowerModel{}) {
		s.Power = energy.Default()
	}
	if err := errors.Join(s.Validate(), s.Power.Validate(), positive("trials", s.Trials)); err != nil {
		return nil, EnergyResult{}, err
	}
	model, err := s.model(0)
	if err != nil {
		return nil, EnergyResult{}, err
	}

	classes := []workload.Class{workload.A32, workload.B64, workload.C64, workload.D64}
	techniques := []core.Technique{core.CheckpointRestart, core.MultilevelCheckpoint, core.ParallelRecovery}
	apps := make([]workload.App, len(classes))
	for i, class := range classes {
		apps[i] = workload.App{Class: class, TimeSteps: s.TimeSteps, Nodes: s.Machine.NodesForFraction(s.Fraction)}
	}

	rm := resilience.NewMetrics(s.Obs)
	nt := len(techniques)
	vals, err := s.cells(len(classes)*nt, 2*summaryWidth, true, func(i, _ int) ([]float64, error) {
		app, ti := apps[i/nt], i%nt
		x, err := resilience.New(techniques[ti], app, s.Machine, model, s.Resilience)
		if err != nil {
			return nil, err
		}
		rt := resilience.NewRuntime(rm)
		horizon := units.Duration(appsim.DefaultHorizonFactor * float64(app.Baseline()))
		var total, overhead stats.Accumulator
		for trial := 0; trial < s.Trials; trial++ {
			res := rt.Run(x, horizon, rng.Stream(s.Seed^uint64(ti+1)*0x2545f4914f6cdd1d, uint64(trial)))
			if !res.Completed {
				continue
			}
			b, err := energy.Account(res, x.PhysicalNodes(), s.Resilience.RecoverySpeedup, s.Power)
			if err != nil {
				return nil, err
			}
			total.Add(b.Total.MWh())
			overhead.Add(b.Overhead())
		}
		return append(summaryValues(total.Summarize()), summaryValues(overhead.Summarize())...), nil
	})
	if err != nil {
		return nil, EnergyResult{}, err
	}

	cols := []string{"class", "ideal energy"}
	for _, tech := range techniques {
		cols = append(cols, tech.String()+" (overhead)")
	}
	t := report.New(
		fmt.Sprintf("Energy overhead per technique at %s of the machine", fracLabel(s.Fraction)),
		cols...)
	t.AddNote("mean of %d trials; overhead = non-compute fraction of total energy", s.Trials)
	t.AddNote("node power: %.0fW compute / %.0fW I/O / %.0fW idle",
		float64(s.Power.Compute), float64(s.Power.IO), float64(s.Power.Idle))

	var result EnergyResult
	for ci, app := range apps {
		row := []string{app.Class.Name, energy.IdealEnergy(app.Baseline(), app.Nodes, s.Power).String()}
		for ti, tech := range techniques {
			v := vals[ci*nt+ti]
			c := EnergyCell{Technique: tech, Class: app.Class,
				TotalMWh: summaryOf(v), Overhead: summaryOf(v[summaryWidth:])}
			result.Cells = append(result.Cells, c)
			row = append(row, fmt.Sprintf("%.1fMWh (%.1f%%)", c.TotalMWh.Mean, 100*c.Overhead.Mean))
		}
		t.AddRow(row...)
	}
	return t, result, nil
}

// MTBFSweepSpec configures the reliability sensitivity sweep: technique
// efficiency for one application size as the component MTBF degrades,
// generalizing the Figure 2 -> Figure 3 comparison to a curve.
type MTBFSweepSpec struct {
	Config
	// Class and Fraction pick the application (defaults D64 at 25%).
	Class    workload.Class
	Fraction float64
	// MTBFYears is the sweep (default 20, 10, 5, 2.5, 1.25).
	MTBFYears []float64
	// Trials per point (the registry's default: 200).
	Trials int
}

// Run executes the sweep.
func (s MTBFSweepSpec) Run() (*report.Table, SweepResult, error) {
	if s.Class.Name == "" {
		s.Class = workload.D64
	}
	if s.Fraction == 0 {
		s.Fraction = 0.25
	}
	if s.MTBFYears == nil {
		s.MTBFYears = []float64{20, 10, 5, 2.5, 1.25}
	}
	if err := s.Validate(); err != nil {
		return nil, SweepResult{}, err
	}

	techniques := []core.Technique{core.CheckpointRestart, core.MultilevelCheckpoint, core.ParallelRecovery}
	t := report.New(
		fmt.Sprintf("Efficiency vs. component MTBF (%s at %s of the machine)", s.Class.Name, fracLabel(s.Fraction)),
		techColumns(techniques, "MTBF (years)")...)
	t.AddNote("mean ± stddev of %d trials; extends the Figure 2 vs. Figure 3 comparison to a curve", s.Trials)

	app := workload.App{Class: s.Class, TimeSteps: 1440, Nodes: s.Machine.NodesForFraction(s.Fraction)}
	rows := make([]sweepRow, len(s.MTBFYears))
	for i, years := range s.MTBFYears {
		model, err := s.model(units.Duration(years) * units.Year)
		if err != nil {
			return nil, SweepResult{}, err
		}
		rows[i] = sweepRow{labels: []string{report.F(years)}, app: app, machine: s.Machine, model: model, rc: s.Resilience}
	}
	return s.sweep(t, rows, techniques, s.Trials, func(ti int) uint64 {
		return s.Seed ^ uint64(ti+101)*0x9e3779b97f4a7c15
	})
}

// WeibullSpec configures the failure-distribution sensitivity study: does
// the paper's Poisson (exponential) assumption matter? The study repeats a
// scaling point under Weibull inter-arrivals of decreasing shape (more
// bursty) at the same MTBF.
type WeibullSpec struct {
	Config
	// Class and Fraction pick the application (defaults C64 at 25%).
	Class    workload.Class
	Fraction float64
	// Shapes is the sweep (default 1.0, 0.8, 0.6).
	Shapes []float64
	// Trials per point (the registry's default: 200).
	Trials int
}

// Run executes the study.
func (s WeibullSpec) Run() (*report.Table, SweepResult, error) {
	if s.Class.Name == "" {
		s.Class = workload.C64
	}
	if s.Fraction == 0 {
		s.Fraction = 0.25
	}
	if s.Shapes == nil {
		s.Shapes = []float64{1.0, 0.8, 0.6}
	}
	if err := s.Validate(); err != nil {
		return nil, SweepResult{}, err
	}

	techniques := []core.Technique{core.CheckpointRestart, core.MultilevelCheckpoint, core.ParallelRecovery}
	t := report.New(
		fmt.Sprintf("Efficiency vs. failure inter-arrival shape (%s at %s, MTBF held at %s)",
			s.Class.Name, fracLabel(s.Fraction), mtbfLabel(s.Machine.MTBF)),
		techColumns(techniques, "Weibull shape")...)
	t.AddNote("shape 1.0 is the paper's Poisson assumption; lower shapes are burstier at equal mean")
	t.AddNote("mean ± stddev of %d trials", s.Trials)

	app := workload.App{Class: s.Class, TimeSteps: 1440, Nodes: s.Machine.NodesForFraction(s.Fraction)}
	rows := make([]sweepRow, len(s.Shapes))
	for i, shape := range s.Shapes {
		model, err := failures.NewWeibullModel(s.Machine.MTBF, s.SeverityPMF, shape)
		if err != nil {
			return nil, SweepResult{}, err
		}
		rows[i] = sweepRow{labels: []string{report.F(shape)}, app: app, machine: s.Machine, model: model, rc: s.Resilience}
	}
	return s.sweep(t, rows, techniques, s.Trials, func(ti int) uint64 {
		return s.Seed ^ uint64(ti+201)*0x9e3779b97f4a7c15
	})
}

// BackfillSpec configures the scheduler-extension study: Figure 4 rerun
// with all four heuristics, quantifying what EASY backfilling buys over
// strict FCFS.
type BackfillSpec struct {
	Config
	// Patterns and Arrivals size the study (the registry's defaults:
	// 50 x 100, as Figure 4).
	Patterns int
	Arrivals int
}

// Run executes the study, reusing the Figure 4 machinery with the extended
// scheduler list.
func (s BackfillSpec) Run() (*report.Table, ClusterResult, error) {
	t, res, err := ClusterSpec{
		Config:     s.Config,
		Patterns:   s.Patterns,
		Arrivals:   s.Arrivals,
		Schedulers: core.AllSchedulers(),
	}.Run()
	if err != nil {
		return nil, ClusterResult{}, err
	}
	t.Title = "Scheduler extension: dropped applications with EASY backfilling"
	t.AddNote("EASY-Backfill is a repository extension; the paper evaluates the first three heuristics")
	return t, res, nil
}

// SelectorAgreementSpec configures the analytic-vs-Monte-Carlo selector
// comparison: how often the fast closed-form policy agrees with the
// simulation-probed policy, and how both fare in a cluster run.
type SelectorAgreementSpec struct {
	Config
	// Patterns and Arrivals size the cluster comparison (the registry's
	// defaults: 50 x 60).
	Patterns int
	Arrivals int
	// Probe tunes the Monte-Carlo selector (defaults as in Figure 5).
	Probe selection.Options
}

// SelectorAgreementResult summarizes the comparison.
type SelectorAgreementResult struct {
	// Agreement is the fraction of (class, size) cells where both
	// selectors pick the same technique.
	Agreement float64
	// MonteCarloDropped and AnalyticDropped summarize cluster drops with
	// each policy under slack-based scheduling.
	MonteCarloDropped, AnalyticDropped stats.Summary
}

// Run executes the comparison. Its Progress cells are the cluster grid
// (one cell per pattern, both policies), then the probe selector's cells.
func (s SelectorAgreementSpec) Run() (*report.Table, SelectorAgreementResult, error) {
	if err := errors.Join(s.Validate(), scale(s.Patterns, s.Arrivals)); err != nil {
		return nil, SelectorAgreementResult{}, err
	}
	model, err := s.model(0)
	if err != nil {
		return nil, SelectorAgreementResult{}, err
	}

	mc, err := s.selector(model, s.Probe, 0xe7037ed1a0b428db, s.Patterns)
	if err != nil {
		return nil, SelectorAgreementResult{}, err
	}
	an, err := analytic.NewSelector(nil, s.Machine, model, s.Resilience)
	if err != nil {
		return nil, SelectorAgreementResult{}, err
	}

	// Cell-level agreement over the Monte-Carlo selector's own grid.
	agree, total := 0, 0
	for _, choice := range mc.Choices() {
		app := workload.App{
			Class:     choice.Class,
			TimeSteps: 1440,
			Nodes:     s.Machine.NodesForFraction(choice.Fraction),
		}
		total++
		if an.Choose(app) == choice.Best {
			agree++
		}
	}

	// Cluster-level comparison under slack-based scheduling.
	cs := ClusterSpec{Config: s.Config, Patterns: s.Patterns, Arrivals: s.Arrivals}
	raw, err := cs.runCells(cs.patterns(7000), []cluster.Spec{
		{Machine: s.Machine, Scheduler: core.SlackBased, Chooser: mc.Choose},
		{Machine: s.Machine, Scheduler: core.SlackBased, Chooser: an.Choose},
	})
	if err != nil {
		return nil, SelectorAgreementResult{}, err
	}

	result := SelectorAgreementResult{
		Agreement:         float64(agree) / float64(total),
		MonteCarloDropped: raw[0].dropped.Summarize(),
		AnalyticDropped:   raw[1].dropped.Summarize(),
	}
	t := report.New("Resilience Selection policies: Monte-Carlo probing vs. closed-form model",
		"metric", "value")
	t.AddRow("policy-cell agreement", fmt.Sprintf("%.0f%% of %d cells", 100*result.Agreement, total))
	t.AddRow("dropped (Monte-Carlo policy)", report.Pct(result.MonteCarloDropped.Mean, result.MonteCarloDropped.StdDev))
	t.AddRow("dropped (analytic policy)", report.Pct(result.AnalyticDropped.Mean, result.AnalyticDropped.StdDev))
	t.AddNote("cluster rows: slack-based scheduling over %d patterns of %d arrivals", s.Patterns, s.Arrivals)
	return t, result, nil
}

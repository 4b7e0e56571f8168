package check

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"exaresil/internal/analytic"
	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/obs"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/stats"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// Tolerance bounds the allowed divergence between the analytic prediction
// and the Monte-Carlo mean of one sweep cell.
type Tolerance struct {
	// AbsEff is the absolute efficiency slack. The analytic models are
	// first-order in the failure rate, so they drift from the simulator as
	// lambda*(tau+C) grows; the in-package agreement tests use 0.02-0.10
	// across the same regimes.
	AbsEff float64
	// CIMult widens the band by this many 95% confidence half-widths of
	// the simulated mean, so small-trial sweeps do not flag sampling noise.
	CIMult float64
	// Collapse is the efficiency below which a cell counts as collapsed.
	// In collapse regimes the first-order models clamp to zero while the
	// simulator reports a small positive residual (or vice versa); two
	// collapsed verdicts agree even when their values differ.
	Collapse float64
}

// DefaultTolerance matches the calibration of the analytic package's
// agreement tests, widened for the harsher corners this sweep visits.
func DefaultTolerance() Tolerance {
	return Tolerance{AbsEff: 0.10, CIMult: 3, Collapse: 0.12}
}

// Sweep configures a conformance sweep over the parameter grid
// (checkpoint costs x failure rates x node counts x techniques).
// Checkpoint costs enter through the application class (memory per node
// sets every level's cost), failure rates through the component MTBF.
type Sweep struct {
	// Machine is the platform (default: the paper's exascale machine).
	Machine machine.Config
	// PMF is the failure-severity distribution.
	PMF failures.SeverityPMF
	// Resilience carries the technique parameters.
	Resilience resilience.Config
	// MTBFs is the failure-rate axis (default 10y and 2.5y, the paper's
	// baseline and sensitivity values).
	MTBFs []units.Duration
	// Classes is the checkpoint-cost axis (default A32 and D64, the
	// extremes of Table I).
	Classes []workload.Class
	// Fractions is the node-count axis, as machine fractions.
	Fractions []float64
	// Techniques defaults to the full seven-technique menu.
	Techniques []core.Technique
	// TimeSteps is T_S per application (default 1440).
	TimeSteps int
	// Trials is the Monte-Carlo repetition count per cell (default 30).
	Trials int
	// Paired switches each cell's trials to the variance-reduced scheme
	// the selection layer uses (PairedTrials): trial 2k and 2k+1 share the
	// cell-keyed substream rng.SubStream(Seed, cell, k), the odd member
	// with mirrored continuous draws. The analytic prediction is
	// unchanged, so a passing paired sweep certifies that antithetic
	// pairing stays inside the same conformance bands as independent
	// sampling. An odd Trials count leaves the last trial unpaired.
	Paired bool
	// Seed drives all randomness.
	Seed uint64
	// Tol bounds sim-vs-analytic divergence.
	Tol Tolerance
	// Workers bounds cell-level parallelism (default: serial execution;
	// cells are deterministic either way).
	Workers int
}

// DefaultSweep is the grid exacheck runs: 2 MTBFs x 2 classes x 4 sizes x
// 7 techniques = 112 cells (the paper's five plus the post-2017 ReStore
// and TeaMPI extensions).
func DefaultSweep() Sweep {
	return Sweep{
		Machine:    machine.Exascale(),
		PMF:        failures.DefaultSeverityPMF(),
		Resilience: resilience.DefaultConfig(),
		MTBFs:      []units.Duration{10 * units.Year, units.Duration(2.5) * units.Year},
		Classes:    []workload.Class{workload.A32, workload.D64},
		Fractions:  []float64{0.01, 0.10, 0.50, 1.00},
		Techniques: core.Techniques(),
		TimeSteps:  1440,
		Trials:     30,
		Seed:       20170529,
		Tol:        DefaultTolerance(),
	}
}

// Cell is one grid point's verdict.
type Cell struct {
	Technique core.Technique
	Class     string
	Fraction  float64
	Nodes     int
	MTBF      units.Duration
	// Viable reports whether the executor could run at all.
	Viable bool
	// Analytic is the closed-form expected efficiency; Sim summarizes the
	// Monte-Carlo efficiencies.
	Analytic float64
	Sim      stats.Summary
	// OK is the conformance verdict; Detail explains a failure.
	OK     bool
	Detail string
}

// Label renders the cell's coordinates for reports and violations.
func (c Cell) Label() string {
	return fmt.Sprintf("%v/%s/%dn/%s", c.Technique, c.Class, c.Nodes, c.MTBF)
}

// Report aggregates a full audit: the conformance cells, every runtime
// invariant violation observed in their traces, the metamorphic failures,
// and the metrics-vs-trace reconciliation failures.
type Report struct {
	Cells       []Cell
	Violations  []Violation
	Metamorphic []string
	// MetricsChecks lists per-technique disagreements between the sweep's
	// obs registry (fed by the engine's metrics hooks) and the same totals
	// derived independently from traces and Results.
	MetricsChecks []string
}

// ConformanceFailures counts cells whose sim-vs-analytic comparison failed.
func (r *Report) ConformanceFailures() int {
	n := 0
	for _, c := range r.Cells {
		if !c.OK {
			n++
		}
	}
	return n
}

// OK reports a clean audit.
func (r *Report) OK() bool {
	return r.ConformanceFailures() == 0 && len(r.Violations) == 0 &&
		len(r.Metamorphic) == 0 && len(r.MetricsChecks) == 0
}

// Write renders the report.
func (r *Report) Write(w io.Writer) {
	fmt.Fprintf(w, "conformance: %d cells, %d failures\n", len(r.Cells), r.ConformanceFailures())
	for _, c := range r.Cells {
		status := "ok"
		if !c.OK {
			status = "FAIL " + c.Detail
		}
		viable := ""
		if !c.Viable {
			viable = " (not viable)"
		}
		fmt.Fprintf(w, "  %-40s analytic %.4f  sim %.4f ±%.4f%s  %s\n",
			c.Label(), c.Analytic, c.Sim.Mean, c.Sim.CI95, viable, status)
	}
	fmt.Fprintf(w, "invariants: %d violations\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  %s\n", v)
	}
	fmt.Fprintf(w, "metamorphic: %d failures\n", len(r.Metamorphic))
	for _, m := range r.Metamorphic {
		fmt.Fprintf(w, "  %s\n", m)
	}
	fmt.Fprintf(w, "metrics: %d reconciliation failures\n", len(r.MetricsChecks))
	for _, m := range r.MetricsChecks {
		fmt.Fprintf(w, "  %s\n", m)
	}
}

func (s Sweep) withDefaults() Sweep {
	d := DefaultSweep()
	if s.Machine.Name == "" {
		s.Machine = d.Machine
	}
	if s.PMF == (failures.SeverityPMF{}) {
		s.PMF = d.PMF
	}
	if s.Resilience == (resilience.Config{}) {
		s.Resilience = d.Resilience
	}
	if s.MTBFs == nil {
		s.MTBFs = d.MTBFs
	}
	if s.Classes == nil {
		s.Classes = d.Classes
	}
	if s.Fractions == nil {
		s.Fractions = d.Fractions
	}
	if s.Techniques == nil {
		s.Techniques = d.Techniques
	}
	if s.TimeSteps == 0 {
		s.TimeSteps = d.TimeSteps
	}
	if s.Trials == 0 {
		s.Trials = d.Trials
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	if s.Tol == (Tolerance{}) {
		s.Tol = d.Tol
	}
	return s
}

// cellSpec is one grid point before evaluation.
type cellSpec struct {
	tech  core.Technique
	class workload.Class
	frac  float64
	mtbf  units.Duration
}

// Run executes the sweep. Cells are evaluated independently (in parallel
// when Workers > 1) but each cell's trials run sequentially on one checked
// executor, so the report is deterministic for a given spec.
func (s Sweep) Run() (*Report, error) {
	s = s.withDefaults()
	if err := s.Machine.Validate(); err != nil {
		return nil, err
	}
	if err := s.Resilience.Validate(); err != nil {
		return nil, err
	}

	var specs []cellSpec
	for _, mtbf := range s.MTBFs {
		for _, class := range s.Classes {
			for _, frac := range s.Fractions {
				for _, tech := range s.Techniques {
					specs = append(specs, cellSpec{tech: tech, class: class, frac: frac, mtbf: mtbf})
				}
			}
		}
	}

	workers := s.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	// Every cell's executor feeds one shared obs registry; the per-cell
	// expected totals (derived independently from traces and Results) are
	// folded per technique afterwards and reconciled against it.
	reg := obs.NewRegistry()
	rm := resilience.NewMetrics(reg)

	cells := make([]Cell, len(specs))
	violations := make([][]Violation, len(specs))
	totals := make([]phaseTotals, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(specs)) {
					return
				}
				cells[i], violations[i], totals[i], errs[i] = s.runCell(specs[i], uint64(i), rm)
			}
		}()
	}
	wg.Wait()

	rep := &Report{Cells: cells}
	perTech := make(map[core.Technique]*phaseTotals)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("check: cell %s: %w", cells[i].Label(), err)
		}
		rep.Violations = append(rep.Violations, violations[i]...)
		t, ok := perTech[specs[i].tech]
		if !ok {
			t = &phaseTotals{}
			perTech[specs[i].tech] = t
		}
		t.add(totals[i])
	}
	rep.MetricsChecks = reconcileMetrics(reg, perTech)
	rep.Metamorphic = s.metamorphic()
	return rep, nil
}

// phaseTotals accumulates the metric values one technique's runs are
// expected to have produced, derived from trace splits and Results rather
// than from the metrics hooks themselves.
type phaseTotals struct {
	runs, completions, failures, rollbacks uint64
	severities                             [4]uint64
	// Time phases in simulated minutes, matching the label values of
	// exaresil_resilience_time_minutes_total.
	checkpoint, restore, relaunch, rework, useful float64
}

// add folds another cell's totals in.
func (t *phaseTotals) add(o phaseTotals) {
	t.runs += o.runs
	t.completions += o.completions
	t.failures += o.failures
	t.rollbacks += o.rollbacks
	for i := range t.severities {
		t.severities[i] += o.severities[i]
	}
	t.checkpoint += o.checkpoint
	t.restore += o.restore
	t.relaunch += o.relaunch
	t.rework += o.rework
	t.useful += o.useful
}

// observe folds one run into the expected totals: counts and rework/useful
// from the Result, the blocking-phase times from the trace-derived split
// (the independent ledger).
func (t *phaseTotals) observe(res resilience.Result, split PhaseSplit, severities [4]int) {
	t.runs++
	if res.Completed {
		t.completions++
	}
	t.failures += uint64(res.Failures)
	t.rollbacks += uint64(res.Rollbacks)
	for i := range severities {
		t.severities[i] += uint64(severities[i])
	}
	t.checkpoint += split.Checkpoint.Minutes()
	t.restore += (split.Restore - split.Relaunch).Minutes()
	t.relaunch += split.Relaunch.Minutes()
	t.rework += res.ReworkTime.Minutes()
	if useful := res.Makespan() - res.CheckpointTime - res.RestartTime - res.ReworkTime; useful > 0 {
		t.useful += useful.Minutes()
	}
}

// runCell evaluates one grid point: Trials checked simulation runs and the
// analytic prediction.
func (s Sweep) runCell(spec cellSpec, index uint64, rm *resilience.Metrics) (Cell, []Violation, phaseTotals, error) {
	cfg := s.Machine.WithMTBF(spec.mtbf)
	model, err := failures.NewModel(spec.mtbf, s.PMF)
	if err != nil {
		return Cell{}, nil, phaseTotals{}, err
	}
	app := workload.App{
		Class:     spec.class,
		TimeSteps: s.TimeSteps,
		Nodes:     cfg.NodesForFraction(spec.frac),
	}
	cell := Cell{
		Technique: spec.tech,
		Class:     spec.class.Name,
		Fraction:  spec.frac,
		Nodes:     app.Nodes,
		MTBF:      spec.mtbf,
	}

	cell.Analytic, err = analytic.Efficiency(spec.tech, app, cfg, model, s.Resilience)
	if err != nil {
		return cell, nil, phaseTotals{}, err
	}

	x, err := resilience.New(spec.tech, app, cfg, model, s.Resilience)
	if err != nil {
		return cell, nil, phaseTotals{}, err
	}
	cell.Viable, _ = x.Viable()

	checker := NewChecker(x)
	rt := resilience.NewRuntime(rm)
	rt.Observer = checker.Observe
	horizon := units.Duration(float64(app.Baseline()) * 100)
	var eff stats.Accumulator
	var totals phaseTotals
	var src rng.Source
	for trial := 0; trial < s.Trials; trial++ {
		if s.Paired {
			src.SetSubStream(s.Seed, index, uint64(trial)/2)
			src.SetMirror(trial%2 == 1)
		} else {
			// Bit-identical to the historical rng.Stream derivation.
			src.SetStream(s.Seed^(index*0x9e3779b97f4a7c15), uint64(trial))
		}
		checker.BeginRun(fmt.Sprintf("%s trial %d", cell.Label(), trial))
		res := rt.Run(x, 0, horizon, &src)
		checker.FinishRun(res)
		eff.Add(res.Efficiency())
		if res.Blocked == "" {
			// Blocked runs never reach the engine, so the metrics hooks
			// never saw them either.
			totals.observe(res, checker.RunSplit(), checker.RunSeverities())
		}
	}
	cell.Sim = eff.Summarize()

	cell.OK, cell.Detail = s.verdict(cell)
	return cell, checker.Violations(), totals, nil
}

// verdict compares the analytic prediction against the simulated mean.
func (s Sweep) verdict(c Cell) (bool, string) {
	if !c.Viable {
		// A non-viable executor scores zero identically; the analytic model
		// must agree that the regime collapsed.
		if c.Analytic <= s.Tol.Collapse {
			return true, ""
		}
		return false, fmt.Sprintf("analytic %.4f for a non-viable cell", c.Analytic)
	}
	band := s.Tol.AbsEff + s.Tol.CIMult*c.Sim.CI95
	if diff := math.Abs(c.Analytic - c.Sim.Mean); diff <= band {
		return true, ""
	}
	if c.Analytic <= s.Tol.Collapse && c.Sim.Mean <= s.Tol.Collapse {
		// Both sides call the regime collapsed; their residuals differ only
		// in how fast they approach zero.
		return true, ""
	}
	return false, fmt.Sprintf("analytic %.4f vs sim %.4f exceeds band %.4f",
		c.Analytic, c.Sim.Mean, s.Tol.AbsEff+s.Tol.CIMult*c.Sim.CI95)
}

// reconcileMetrics compares the obs registry the sweep's executors fed
// against the per-technique totals derived independently from traces and
// Results. The two ledgers observe the same runs through different code
// paths (engine hooks vs. trace mirror), so any disagreement beyond
// float-summation drift is a bug in one of them.
func reconcileMetrics(reg *obs.Registry, want map[core.Technique]*phaseTotals) []string {
	// Index the snapshot by (family, technique, extra-label signature).
	snap := map[string]float64{}
	for _, m := range reg.Snapshot() {
		key := m.Name
		for _, lk := range []string{"technique", "phase", "severity"} {
			if v, ok := m.Labels[lk]; ok {
				key += "|" + lk + "=" + v
			}
		}
		snap[key] = m.Value
	}

	var fails []string
	techs := make([]core.Technique, 0, len(want))
	for t := range want {
		techs = append(techs, t)
	}
	sort.Slice(techs, func(i, j int) bool { return techs[i] < techs[j] })

	for _, tech := range techs {
		w := want[tech]
		lbl := tech.Label()
		series := func(name, extra string) float64 {
			return snap[name+"|technique="+lbl+extra]
		}
		checkCount := func(name, extra string, wantV uint64) {
			if got := series(name, extra); got != float64(wantV) {
				fails = append(fails, fmt.Sprintf("%v: %s%s = %g, trace-derived total %d", tech, name, extra, got, wantV))
			}
		}
		checkCount("exaresil_resilience_runs_total", "", w.runs)
		checkCount("exaresil_resilience_completions_total", "", w.completions)
		checkCount("exaresil_resilience_failures_total", "", w.failures)
		checkCount("exaresil_resilience_rollbacks_total", "", w.rollbacks)
		for sev := 1; sev <= 3; sev++ {
			checkCount("exaresil_resilience_failures_by_severity_total",
				fmt.Sprintf("|severity=%d", sev), w.severities[sev])
		}
		checkTime := func(phase string, wantV float64) {
			got := series("exaresil_resilience_time_minutes_total", "|phase="+phase)
			// The metric and the expectation sum the same per-run values in
			// different orders (parallel cells share a series), so allow
			// float-summation drift proportional to the magnitude.
			tol := 1e-9*math.Abs(wantV) + 1e-6
			if math.Abs(got-wantV) > tol {
				fails = append(fails, fmt.Sprintf("%v: time[%s] = %g min, trace-derived total %g min", tech, phase, got, wantV))
			}
		}
		checkTime(resilience.PhaseCheckpoint, w.checkpoint)
		checkTime(resilience.PhaseRestore, w.restore)
		checkTime(resilience.PhaseRelaunch, w.relaunch)
		checkTime(resilience.PhaseRework, w.rework)
		checkTime(resilience.PhaseUseful, w.useful)
	}
	return fails
}

// SortCells orders the report's cells for stable rendering (parallel
// evaluation preserves index order already; this is for merged reports).
func SortCells(cells []Cell) {
	sort.SliceStable(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.MTBF != b.MTBF {
			return a.MTBF > b.MTBF
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Fraction != b.Fraction {
			return a.Fraction < b.Fraction
		}
		return a.Technique < b.Technique
	})
}

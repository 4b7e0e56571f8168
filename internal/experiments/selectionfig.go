package experiments

import (
	"errors"

	"exaresil/internal/cluster"
	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/report"
	"exaresil/internal/selection"
	"exaresil/internal/stats"
	"exaresil/internal/workload"
)

// SelectionSpec configures the Figure 5 study: each resource-management
// technique running everything under Parallel Recovery versus running with
// per-application Resilience Selection, over four arrival-pattern
// populations (unbiased, high-memory, high-communication, large).
type SelectionSpec struct {
	Config
	// Patterns and Arrivals size the study (paper: 50 x 100).
	Patterns int
	Arrivals int
	// Biases enumerates the pattern populations (default: all four).
	Biases []workload.Bias
	// Schedulers enumerates the RM techniques (default: all three).
	Schedulers []core.Scheduler
	// Baseline is the fixed technique compared against Selection
	// (default: Parallel Recovery, the paper's most consistent winner).
	Baseline core.Technique
	// Paired runs the per-bias cluster grids with antithetic pattern
	// pairs (see ClusterSpec.Paired). Pair it with
	// Selection.PairedTrials to variance-reduce the selector build too.
	Paired bool
	// Selection tunes selector construction.
	Selection selection.Options
}

// SelectionCell is one pair of bars in Figure 5.
type SelectionCell struct {
	Bias      workload.Bias
	Scheduler core.Scheduler
	// Baseline and Selected are the dropped percentages under the fixed
	// baseline technique and under Resilience Selection.
	Baseline, Selected stats.Summary
}

// SelectionResult is the figure's full data set.
type SelectionResult struct {
	Cells []SelectionCell
	// Table is the selection policy the study used.
	Table []selection.Choice
}

// Cell finds one bias/scheduler combination.
func (r SelectionResult) Cell(b workload.Bias, s core.Scheduler) (SelectionCell, bool) {
	for _, c := range r.Cells {
		if c.Bias == b && c.Scheduler == s {
			return c, true
		}
	}
	return SelectionCell{}, false
}

func (s SelectionSpec) withDefaults() SelectionSpec {
	if s.Biases == nil {
		s.Biases = workload.Biases()
	}
	if s.Schedulers == nil {
		s.Schedulers = core.Schedulers()
	}
	if !s.Baseline.Valid() || s.Baseline == core.Ideal {
		s.Baseline = core.ParallelRecovery
	}
	return s
}

// Run executes the Figure 5 study and renders its table. Its Progress
// cells are the per-bias grids, bias by bias, then the selector's probe
// cells.
func (s SelectionSpec) Run() (*report.Table, SelectionResult, error) {
	s = s.withDefaults()
	if err := errors.Join(s.Validate(), scale(s.Patterns, s.Arrivals)); err != nil {
		return nil, SelectionResult{}, err
	}
	model, err := s.model(0)
	if err != nil {
		return nil, SelectionResult{}, err
	}

	gridCells := len(s.Biases) * 2 * len(s.Schedulers) * s.Patterns
	selector, err := s.selector(model, s.Selection, 0xa0761d6478bd642f, gridCells)
	if err != nil {
		return nil, SelectionResult{}, err
	}

	result := SelectionResult{Table: selector.Choices()}
	t := report.New("Percentage of applications dropped: fixed Parallel Recovery vs. Resilience Selection",
		"arrival pattern", "scheduler", s.Baseline.String(), "Resilience Selection")
	t.AddNote("mean ± stddev over %d arrival patterns of %d applications each", s.Patterns, s.Arrivals)

	cellBase := 0 // disjoint Progress cell ranges across the per-bias grids
	for _, bias := range s.Biases {
		cs := ClusterSpec{
			Config:   s.Config,
			Patterns: s.Patterns,
			Arrivals: s.Arrivals,
			Bias:     bias,
			Paired:   s.Paired,
		}
		cs.Progress = s.Progress.Offset(cellBase)
		pats := cs.patterns(0)
		combos := make([]comboSpec, 0, 2*len(s.Schedulers))
		for _, sch := range s.Schedulers {
			combos = append(combos,
				comboSpec{cluster.Spec{Machine: s.Machine, Scheduler: sch, Technique: s.Baseline}, pats},
				comboSpec{cluster.Spec{Machine: s.Machine, Scheduler: sch, Chooser: selector.Choose}, pats},
			)
		}
		cellBase += 2 * len(s.Schedulers) * cs.Patterns
		raw, err := cs.runCells(combos)
		if err != nil {
			return nil, SelectionResult{}, err
		}
		for i, sch := range s.Schedulers {
			base := raw[2*i].dropped.Summarize()
			sel := raw[2*i+1].dropped.Summarize()
			result.Cells = append(result.Cells, SelectionCell{
				Bias:      bias,
				Scheduler: sch,
				Baseline:  base,
				Selected:  sel,
			})
			t.AddRow(bias.String(), sch.String(),
				report.Pct(base.Mean, base.StdDev),
				report.Pct(sel.Mean, sel.StdDev))
		}
	}
	return t, result, nil
}

// selector builds the Monte-Carlo selector the selection exhibits share:
// opts with the seed derived from c.Seed by salt unless set, c's metrics
// and worker budget, and its probe cells at cell index base onward.
func (c Config) selector(model *failures.Model, opts selection.Options, salt uint64, base int) (*selection.Selector, error) {
	if opts.Seed == 0 {
		opts.Seed = c.Seed ^ salt
	}
	if opts.Obs == nil {
		opts.Obs = c.Obs
	}
	if opts.Workers == 0 {
		opts.Workers = c.Workers
	}
	return selection.NewSelector(c.Machine, model, c.Resilience, opts, c.Progress.Offset(base))
}

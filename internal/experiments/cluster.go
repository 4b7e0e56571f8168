package experiments

import (
	"errors"

	"exaresil/internal/cluster"
	"exaresil/internal/core"
	"exaresil/internal/report"
	"exaresil/internal/rng"
	"exaresil/internal/stats"
	"exaresil/internal/workload"
)

// ClusterSpec configures the Figure 4 study: percentage of dropped
// applications for every resource-management and resilience-technique
// combination over a set of arrival patterns, against the Ideal baseline.
type ClusterSpec struct {
	Config
	// Patterns is the number of arrival patterns (paper: 50).
	Patterns int
	// Arrivals is the number of applications per pattern (paper: 100).
	Arrivals int
	// Bias selects the pattern population (Figure 4 uses Unbiased).
	Bias workload.Bias
	// Paired switches the study to antithetic pattern pairs: pattern slot
	// 2k and 2k+1 share the k-th generated arrival pattern and the k-th
	// cluster seed, with the odd member's continuous draws mirrored
	// (arrival gaps at generation time, failure inter-arrivals at run
	// time; see rng.SetMirror). Pair means are negatively correlated, so
	// the study reaches a given confidence width with fewer pattern slots
	// than independent sampling — the variance-reduced mode behind the
	// fig4_vr benchmark (DESIGN.md §11). An odd Patterns count leaves the
	// last slot unpaired.
	Paired bool
	// Schedulers and Techniques enumerate the combinations (defaults:
	// all three schedulers; Ideal plus the three cluster techniques).
	Schedulers []core.Scheduler
	Techniques []core.Technique
}

// ClusterCell is one bar of Figure 4.
type ClusterCell struct {
	Scheduler core.Scheduler
	Technique core.Technique
	// Dropped is the percentage of applications dropped, summarized over
	// patterns.
	Dropped stats.Summary
	// MeanWaitMinutes summarizes queueing delay over patterns.
	MeanWaitMinutes stats.Summary
}

// ClusterResult is the figure's full data set.
type ClusterResult struct {
	Bias  workload.Bias
	Cells []ClusterCell
}

// Cell finds one scheduler/technique combination.
func (r ClusterResult) Cell(s core.Scheduler, t core.Technique) (ClusterCell, bool) {
	for _, c := range r.Cells {
		if c.Scheduler == s && c.Technique == t {
			return c, true
		}
	}
	return ClusterCell{}, false
}

func (s ClusterSpec) withDefaults() ClusterSpec {
	if s.Schedulers == nil {
		s.Schedulers = core.Schedulers()
	}
	if s.Techniques == nil {
		s.Techniques = append([]core.Technique{core.Ideal}, core.ClusterTechniques()...)
	}
	return s
}

// patterns generates the study's shared arrival patterns: every
// combination sees the same submissions, as in the paper, so differences
// between cells are attributable to the techniques alone. Pattern p
// draws from stream p+offset of the seed (Figures 4 and 5 use offset 0;
// the policy comparisons of ext-selectors and ext-hetero their own).
func (s ClusterSpec) patterns(offset uint64) []workload.Pattern {
	out := make([]workload.Pattern, s.Patterns)
	var src rng.Source
	for p := range out {
		spec := workload.PatternSpec{
			Arrivals:   s.Arrivals,
			Bias:       s.Bias,
			FillSystem: true,
		}
		if s.Paired {
			// Slot pair 2k/2k+1 regenerates the same pattern stream, the
			// odd member with mirrored continuous draws (antithetic
			// arrival gaps; discrete size/class draws are unaffected).
			src.SetStream(s.Seed, uint64(p/2)+offset)
			src.SetMirror(p%2 == 1)
		} else {
			src.SetStream(s.Seed, uint64(p)+offset)
		}
		out[p] = spec.Generate(s.Machine, &src)
	}
	return out
}

// runCells evaluates dropped-percentage statistics for each combo over
// its patterns: one grid cell per (combo, pattern), spread across the
// worker budget through the one cell loop (appsim.Cells). Each combo
// carries its own cluster.Spec template — machine, scheduler, technique
// or chooser, placement — and pattern set, so Figure 4, Figure 5's
// per-application selection, ext-hetero's fleets and ext-selectors'
// policies all run here. Pattern p of every combo runs from the same
// cluster seed.
//
// The cells are folded in index order, so the Welford accumulation sees
// observations in the same order on every run and the figure's numbers
// are bit-identical regardless of worker count, scheduling, or which
// cells Config.Progress restored (DESIGN.md §10).
func (s ClusterSpec) runCells(combos []comboSpec) ([]comboResult, error) {
	model, err := s.model(0)
	if err != nil {
		return nil, err
	}
	vals, err := s.cells(len(combos)*s.Patterns, 2, true, func(i, _ int) ([]float64, error) {
		cb, pattern := combos[i/s.Patterns], i%s.Patterns
		seedSlot, mirror := pattern, false
		if s.Paired {
			// Both pair members run from the same cluster seed so their
			// failure draws pair up stream for stream.
			seedSlot, mirror = pattern/2, pattern%2 == 1
		}
		spec := cb.Spec
		spec.Model = model
		spec.Resilience = s.Resilience
		spec.Pattern = cb.patterns[pattern]
		spec.Seed = s.Seed ^ (uint64(seedSlot+1) * 0xd1342543de82ef95)
		spec.Mirror = mirror
		spec.Obs = s.Obs
		m, err := cluster.Run(spec)
		if err != nil {
			return nil, err
		}
		return []float64{m.DroppedPct(), m.MeanWait.Minutes()}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]comboResult, len(combos))
	for i, v := range vals {
		out[i/s.Patterns].dropped.Add(v[0])
		out[i/s.Patterns].wait.Add(v[1])
	}
	return out, nil
}

// comboSpec is one combo's policy: the cluster.Spec fields that vary by
// combo, and the arrival patterns it runs over. comboResult is its
// accumulated outcome.
type comboSpec struct {
	cluster.Spec
	patterns []workload.Pattern
}

type comboResult struct {
	dropped, wait stats.Accumulator
}

// scale rejects a non-positive pattern or arrival count (see positive).
func scale(patterns, arrivals int) error {
	return errors.Join(positive("patterns", patterns), positive("arrivals", arrivals))
}

// Run executes the Figure 4 study and renders its table.
func (s ClusterSpec) Run() (*report.Table, ClusterResult, error) {
	s = s.withDefaults()
	if err := errors.Join(s.Validate(), scale(s.Patterns, s.Arrivals)); err != nil {
		return nil, ClusterResult{}, err
	}

	pats := s.patterns(0)
	var combos []comboSpec
	for _, sch := range s.Schedulers {
		for _, tech := range s.Techniques {
			combos = append(combos, comboSpec{cluster.Spec{Machine: s.Machine, Scheduler: sch, Technique: tech}, pats})
		}
	}
	raw, err := s.runCells(combos)
	if err != nil {
		return nil, ClusterResult{}, err
	}

	result := ClusterResult{Bias: s.Bias}
	t := report.New("Percentage of applications dropped per resilience x resource-management combination",
		techColumns(s.Techniques, "scheduler")...)
	t.AddNote("mean ± stddev over %d arrival patterns of %d applications each (%s population)",
		s.Patterns, s.Arrivals, s.Bias)
	t.AddNote("machine %s; system starts full; Poisson arrivals every 2 h (mean)", s.Machine.Name)

	i := 0
	for _, sch := range s.Schedulers {
		row := []string{sch.String()}
		for _, tech := range s.Techniques {
			sum := raw[i].dropped.Summarize()
			result.Cells = append(result.Cells, ClusterCell{
				Scheduler:       sch,
				Technique:       tech,
				Dropped:         sum,
				MeanWaitMinutes: raw[i].wait.Summarize(),
			})
			row = append(row, report.Pct(sum.Mean, sum.StdDev))
			i++
		}
		t.AddRow(row...)
	}
	return t, result, nil
}

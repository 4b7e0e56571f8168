package experiments

import (
	"errors"
	"fmt"
	"sync"

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
	if s.Patterns == 0 {
		s.Patterns = 50
	}
	if s.Arrivals == 0 {
		s.Arrivals = 100
	}
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
// between cells are attributable to the techniques alone.
func (s ClusterSpec) patterns() []workload.Pattern {
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
			src.SetStream(s.Seed, uint64(p/2))
			src.SetMirror(p%2 == 1)
		} else {
			src.SetStream(s.Seed, uint64(p))
		}
		out[p] = spec.Generate(s.Machine, &src)
	}
	return out
}

// runCells evaluates dropped-percentage statistics for each
// (scheduler, chooser) cell over the shared patterns, in parallel across
// cells and patterns. The chooser map allows Figure 5 to reuse the same
// machinery with per-application technique selection.
//
// Every task writes into its own (combo, pattern) slot and the slots are
// folded in index order after all workers drain, so the Welford
// accumulation sees observations in the same order on every run and the
// figure's numbers are bit-identical regardless of worker count or
// scheduling. The task channel is fully buffered and closed before the
// workers start — there is no producer goroutine to strand on an
// abandoned send — and every worker error is reported, joined, not just
// the first one observed.
//
// When Config.Progress is attached, each finished cell is reported with
// its (dropped%, wait-minutes) pair, cells the hook marks Completed are
// folded from their recorded values instead of recomputed, and a canceled
// Progress.Ctx aborts between cells — the grid's checkpoint/restart
// surface (DESIGN.md §10). Restored values are the exact floats a full
// run would produce, so a resumed grid stays bit-identical.
func (s ClusterSpec) runCells(combos []comboSpec) ([]comboResult, error) {
	pats := s.patterns()
	model, err := s.model(0)
	if err != nil {
		return nil, err
	}

	type outcome struct {
		pct  float64
		wait float64
		err  error
	}

	total := len(combos) * s.Patterns
	tasks := make(chan int, total)
	for i := 0; i < total; i++ {
		tasks <- i
	}
	close(tasks)

	prog := s.Progress
	outs := make([]outcome, total)
	workers := min(s.workers(), total)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				if vals, ok := prog.lookup(i); ok && len(vals) == 2 {
					outs[i] = outcome{pct: vals[0], wait: vals[1]}
					continue
				}
				if err := prog.cause(); err != nil {
					outs[i] = outcome{err: err}
					continue
				}
				cb := combos[i/s.Patterns]
				pattern := i % s.Patterns
				seedSlot, mirror := pattern, false
				if s.Paired {
					// Both pair members run from the same cluster seed so
					// their failure draws pair up stream for stream.
					seedSlot, mirror = pattern/2, pattern%2 == 1
				}
				spec := cluster.Spec{
					Machine:    s.Machine,
					Model:      model,
					Scheduler:  cb.scheduler,
					Technique:  cb.technique,
					Chooser:    cb.chooser,
					Resilience: s.Resilience,
					Pattern:    pats[pattern],
					Seed:       s.Seed ^ (uint64(seedSlot+1) * 0xd1342543de82ef95),
					Mirror:     mirror,
					Obs:        s.Obs,
				}
				m, err := cluster.Run(spec)
				outs[i] = outcome{pct: m.DroppedPct(), wait: m.MeanWait.Minutes(), err: err}
				if err == nil {
					prog.note(i, []float64{outs[i].pct, outs[i].wait})
				}
			}
		}()
	}
	wg.Wait()

	// An aborted run reports its context's cause alone — the per-cell
	// skip errors are all that cause repeated.
	if err := prog.cause(); err != nil {
		return nil, err
	}
	out := make([]comboResult, len(combos))
	var errs []error
	for i, oc := range outs {
		if oc.err != nil {
			errs = append(errs, oc.err)
			continue
		}
		out[i/s.Patterns].dropped.Add(oc.pct)
		out[i/s.Patterns].wait.Add(oc.wait)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// comboSpec is one cell's policy; comboResult its accumulated outcome.
type comboSpec struct {
	scheduler core.Scheduler
	technique core.Technique
	chooser   cluster.TechniqueChooser
}

type comboResult struct {
	dropped, wait stats.Accumulator
}

// Run executes the Figure 4 study and renders its table.
func (s ClusterSpec) Run() (*report.Table, ClusterResult, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, ClusterResult{}, err
	}

	var combos []comboSpec
	for _, sch := range s.Schedulers {
		for _, tech := range s.Techniques {
			combos = append(combos, comboSpec{scheduler: sch, technique: tech})
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
	if i != len(raw) {
		return nil, ClusterResult{}, fmt.Errorf("experiments: combo bookkeeping mismatch")
	}
	return t, result, nil
}

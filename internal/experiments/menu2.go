package experiments

import (
	"errors"
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/report"
	"exaresil/internal/selection"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// Menu2Spec configures the ext-menu2 study: the Section VII resilience
// selection re-run over the expanded seven-technique menu — the paper's
// five plus the post-2017 In-Memory Replicated Checkpoint (ReStore,
// arXiv:2203.01107) and Lightweight Replication (TeaMPI, arXiv:2005.12091)
// — across the MTBF ladder and the selection study's size grid. Each cell
// reports the winner the 2017 menu would have picked next to the expanded
// menu's winner, flagging where the 2017 choice is dethroned.
//
// Probing uses the variance-reduced paired scheme throughout (common
// random numbers across technique arms, antithetic pairs within an arm),
// so winner flips are measured on identical failure draws rather than
// sampling noise.
type Menu2Spec struct {
	Config
	// MTBFs is the failure-rate ladder (default 10y, 5y, 2.5y — the
	// paper's baseline, midpoint, and sensitivity values).
	MTBFs []units.Duration
	// Fractions is the size grid (default the selection study's
	// population).
	Fractions []float64
	// PairedTrials is the probe count per technique arm, in antithetic
	// pairs (the registry's default: 100, i.e. 200 probes per arm).
	PairedTrials int
}

// Menu2Point is one cell's verdict.
type Menu2Point struct {
	MTBF     units.Duration
	Class    workload.Class
	Fraction float64
	// PaperBest is the winner restricted to the 2017 menu; MenuBest the
	// winner over all seven techniques. Dethroned reports a post-2017
	// winner (when MenuBest is a paper technique it equals PaperBest).
	PaperBest core.Technique
	PaperEff  float64
	MenuBest  core.Technique
	MenuEff   float64
	Dethroned bool
}

// Menu2Result is the study's data set.
type Menu2Result struct{ Points []Menu2Point }

// Dethroned counts the cells where the expanded menu overturns the 2017
// winner.
func (r Menu2Result) Dethroned() int {
	n := 0
	for _, p := range r.Points {
		if p.Dethroned {
			n++
		}
	}
	return n
}

// Point finds one cell.
func (r Menu2Result) Point(mtbf units.Duration, class string, frac float64) (Menu2Point, bool) {
	for _, p := range r.Points {
		if p.MTBF == mtbf && p.Class.Name == class && p.Fraction == frac {
			return p, true
		}
	}
	return Menu2Point{}, false
}

// Run executes the study. Its Progress cells are the probe cells of one
// selector per MTBF, MTBF by MTBF.
func (s Menu2Spec) Run() (*report.Table, Menu2Result, error) {
	if s.MTBFs == nil {
		s.MTBFs = []units.Duration{10 * units.Year, 5 * units.Year, units.Duration(2.5) * units.Year}
	}
	if err := errors.Join(s.Validate(), positive("paired trials", s.PairedTrials)); err != nil {
		return nil, Menu2Result{}, err
	}

	menu := core.Techniques()
	paper := core.PaperTechniques()

	t := report.New(
		"Expanded-menu selection study: does the 2017 winner survive the post-2017 techniques?",
		"MTBF", "class", "size", "2017 winner", "2017 eff", "menu winner", "menu eff", "dethroned")
	t.AddNote("menu: the paper's five techniques plus ReStore (in-memory replicated checkpoints, arXiv:2203.01107) and TeaMPI (lightweight replication, arXiv:2005.12091)")
	t.AddNote("probes: %d antithetic pairs per technique arm on common random numbers", s.PairedTrials)

	var result Menu2Result
	for mi, mtbf := range s.MTBFs {
		model, err := s.model(mtbf)
		if err != nil {
			return nil, Menu2Result{}, err
		}
		// One selector per MTBF, each with its own range of probe cells.
		sel, err := selection.NewSelector(s.Machine.WithMTBF(mtbf), model, s.Resilience, selection.Options{
			Techniques:    menu,
			SizeFractions: s.Fractions,
			PairedTrials:  s.PairedTrials,
			Seed:          s.Seed ^ uint64(mi+1)*0x9e3779b97f4a7c15,
			Workers:       s.Workers,
			Obs:           s.Obs,
		}, s.Progress.Offset(len(result.Points)))
		if err != nil {
			return nil, Menu2Result{}, err
		}
		for _, c := range sel.Choices() {
			// The probe efficiencies are indexed as the menu, with the
			// paper's five first: the 2017 winner is the argmax of that
			// prefix on the very same common-random-number probes.
			pi, bi := 0, 0
			for i := range paper {
				if c.Efficiency[i] > c.Efficiency[pi] {
					pi = i
				}
			}
			for i := range menu {
				if c.Efficiency[i] > c.Efficiency[bi] {
					bi = i
				}
			}
			p := Menu2Point{
				MTBF:      mtbf,
				Class:     c.Class,
				Fraction:  c.Fraction,
				PaperBest: menu[pi],
				PaperEff:  c.Efficiency[pi],
				MenuBest:  menu[bi],
				MenuEff:   c.Efficiency[bi],
				Dethroned: bi >= len(paper),
			}
			result.Points = append(result.Points, p)
			dethroned := ""
			if p.Dethroned {
				dethroned = "yes"
			}
			t.AddRow(mtbf.String(), c.Class.Name, fracLabel(c.Fraction),
				p.PaperBest.String(), fmt.Sprintf("%.3f", p.PaperEff),
				p.MenuBest.String(), fmt.Sprintf("%.3f", p.MenuEff), dethroned)
		}
	}
	t.AddNote("dethroned in %d of %d cells", result.Dethroned(), len(result.Points))
	return t, result, nil
}

package experiments

import (
	"fmt"

	"exaresil/internal/analytic"
	"exaresil/internal/core"
	"exaresil/internal/report"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// WhatIfSpec configures the analytic what-if sweep: the closed-form
// efficiency landscape over an (MTBF x application size x technique) grid,
// scored by the batch evaluator in internal/analytic. Unlike the
// Monte-Carlo exhibits it runs in microseconds, so the HTTP service can
// afford to expose it as an interactive "what if the MTBF halved?" query.
type WhatIfSpec struct {
	Config
	// Class is the application class (default D64, the paper's
	// checkpoint-heavy extreme).
	Class workload.Class
	// MTBFs is the failure-rate axis (default 10y, 5y, 2.5y, 1y: the
	// paper's baseline and sensitivity values plus two pessimistic
	// steps).
	MTBFs []units.Duration
	// Fractions is the size axis (default the scaling-figure x-axis).
	Fractions []float64
	// TimeSteps is T_S per application (default 1440).
	TimeSteps int
	// Techniques is the technique axis (default the full seven-technique menu).
	Techniques []core.Technique
}

// WhatIfPoint is one cell of the sweep.
type WhatIfPoint struct {
	MTBF       units.Duration
	Fraction   float64
	Nodes      int
	Technique  core.Technique
	Efficiency float64
}

// WhatIfResult is the sweep's structured data set.
type WhatIfResult struct {
	Class  workload.Class
	Points []WhatIfPoint
}

func (s WhatIfSpec) withDefaults() WhatIfSpec {
	if s.Class.Name == "" {
		s.Class = workload.D64
	}
	if s.MTBFs == nil {
		s.MTBFs = []units.Duration{
			10 * units.Year, 5 * units.Year,
			units.Duration(2.5) * units.Year, units.Year,
		}
	}
	if s.Fractions == nil {
		s.Fractions = DefaultScalingFractions()
	}
	if s.TimeSteps == 0 {
		s.TimeSteps = 1440
	}
	if s.Techniques == nil {
		s.Techniques = core.Techniques()
	}
	return s
}

// Run evaluates the grid and renders its table.
func (s WhatIfSpec) Run() (*report.Table, WhatIfResult, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, WhatIfResult{}, err
	}

	grid := analytic.Grid{
		Machine:    s.Machine,
		PMF:        s.SeverityPMF,
		Resilience: s.Resilience,
		Class:      s.Class,
		TimeSteps:  s.TimeSteps,
		MTBFs:      s.MTBFs,
		Techniques: s.Techniques,
	}
	for _, frac := range s.Fractions {
		grid.Nodes = append(grid.Nodes, s.Machine.NodesForFraction(frac))
	}
	ev, err := analytic.NewEvaluator(grid)
	if err != nil {
		return nil, WhatIfResult{}, err
	}
	eff := ev.Eval()

	result := WhatIfResult{Class: s.Class}
	t := report.New(fmt.Sprintf("Analytic what-if efficiency landscape (%s)", s.Class.Name),
		techColumns(s.Techniques, "MTBF", "system use")...)
	t.AddNote("closed-form first-order efficiency; no Monte-Carlo sampling")
	t.AddNote("class %s: T_C = %.2f, %s per node; T_S = %d",
		s.Class.Name, s.Class.CommFraction, s.Class.MemoryPerNode, s.TimeSteps)

	for mi, mtbf := range s.MTBFs {
		for ni, frac := range s.Fractions {
			row := []string{mtbfLabel(mtbf), fracLabel(frac)}
			for ti, tech := range s.Techniques {
				v := eff[ev.Index(mi, ni, ti)]
				result.Points = append(result.Points, WhatIfPoint{
					MTBF:       mtbf,
					Fraction:   frac,
					Nodes:      grid.Nodes[ni],
					Technique:  tech,
					Efficiency: v,
				})
				row = append(row, fmt.Sprintf("%.4f", v))
			}
			t.AddRow(row...)
		}
	}
	return t, result, nil
}

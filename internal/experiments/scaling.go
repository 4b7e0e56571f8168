package experiments

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/report"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// ScalingSpec configures a Figure 1/2/3-style study: resilience-technique
// efficiency for one application class as it scales from one percent of
// the machine to the full machine.
type ScalingSpec struct {
	Config
	// Class is the application type (Figure 1: A32; Figures 2-3: D64).
	Class workload.Class
	// MTBF overrides the machine's component MTBF (Figure 3: 2.5 years);
	// zero keeps the machine default.
	MTBF units.Duration
	// Fractions is the x-axis (default 1, 5, 10, 25, 50, 100 percent).
	Fractions []float64
	// TimeSteps is T_S (default 1440: the one-day baseline of Section V).
	TimeSteps int
	// Trials is the Monte-Carlo repetition count (paper: 200, the
	// registry's default).
	Trials int
	// Techniques are the bars per group (default: all five).
	Techniques []core.Technique
}

// DefaultScalingFractions is the x-axis of Figures 1-3: one percent of the
// exascale machine (about 1.2 million cores, the scale of today's largest
// applications) through the full machine (123 million cores).
func DefaultScalingFractions() []float64 {
	return []float64{0.01, 0.05, 0.10, 0.25, 0.50, 1.00}
}

func (s ScalingSpec) withDefaults() ScalingSpec {
	if s.Fractions == nil {
		s.Fractions = DefaultScalingFractions()
	}
	if s.TimeSteps == 0 {
		s.TimeSteps = 1440
	}
	if s.Techniques == nil {
		// The paper's five, not the full menu: Figures 1-3 reproduce the
		// 2017 exhibits, whose pinned outputs must not shift as the
		// repository's technique menu grows (ext-menu2 covers the rest).
		s.Techniques = core.PaperTechniques()
	}
	if s.Class.Name == "" {
		s.Class = workload.A32
	}
	return s
}

// Run executes the study and renders its table.
func (s ScalingSpec) Run() (*report.Table, SweepResult, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, SweepResult{}, err
	}
	model, err := s.model(s.MTBF)
	if err != nil {
		return nil, SweepResult{}, err
	}

	t := report.New(
		fmt.Sprintf("Resilience technique efficiency vs. application size (%s, %s MTBF)",
			s.Class.Name, mtbfLabel(model.MTBF())),
		techColumns(s.Techniques, "system use")...)
	t.AddNote("efficiency = baseline execution time / execution time with slowdowns; mean ± stddev of %d trials", s.Trials)
	t.AddNote("class %s: T_C = %.2f, %s per node; T_S = %d (T_B = %s)",
		s.Class.Name, s.Class.CommFraction, s.Class.MemoryPerNode,
		s.TimeSteps, units.Duration(s.TimeSteps)*units.Minute)

	rows := make([]sweepRow, len(s.Fractions))
	for i, frac := range s.Fractions {
		rows[i] = sweepRow{
			labels:  []string{fracLabel(frac)},
			app:     workload.App{Class: s.Class, TimeSteps: s.TimeSteps, Nodes: s.Machine.NodesForFraction(frac)},
			machine: s.Machine,
			model:   model,
			rc:      s.Resilience,
		}
	}
	return s.sweep(t, rows, s.Techniques, s.Trials, func(ti int) uint64 {
		return s.Seed ^ (uint64(ti+1) * 0x517cc1b727220a95)
	})
}

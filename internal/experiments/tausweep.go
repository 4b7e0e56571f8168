package experiments

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/report"
	"exaresil/internal/workload"
)

// TauSweepSpec configures the checkpoint-period ablation: technique
// efficiency as the checkpoint interval is scaled away from its computed
// optimum (Daly's Eq. 4 for the single-level techniques, the Markov-style
// optimizer for multilevel). If the period selection is right, efficiency
// should peak at scale 1.
type TauSweepSpec struct {
	Config
	// Class and Fraction pick the application (defaults C64 at 25%).
	Class    workload.Class
	Fraction float64
	// Scales is the sweep (default 1/4, 1/2, 1, 2, 4).
	Scales []float64
	// Trials per point (the registry's default: 200).
	Trials int
}

// Run executes the ablation.
func (s TauSweepSpec) Run() (*report.Table, SweepResult, error) {
	if s.Class.Name == "" {
		s.Class = workload.C64
	}
	if s.Fraction == 0 {
		s.Fraction = 0.25
	}
	if s.Scales == nil {
		s.Scales = []float64{0.25, 0.5, 1, 2, 4}
	}
	if err := s.Validate(); err != nil {
		return nil, SweepResult{}, err
	}
	model, err := s.model(0)
	if err != nil {
		return nil, SweepResult{}, err
	}

	techniques := []core.Technique{core.CheckpointRestart, core.MultilevelCheckpoint, core.ParallelRecovery}
	t := report.New(
		fmt.Sprintf("Checkpoint-period ablation (%s at %s of the machine)", s.Class.Name, fracLabel(s.Fraction)),
		techColumns(techniques, "period scale")...)
	t.AddNote("scale 1 is the computed optimum (Daly Eq. 4 / multilevel optimizer); efficiency should peak there")
	t.AddNote("mean ± stddev of %d trials", s.Trials)

	app := workload.App{Class: s.Class, TimeSteps: 1440, Nodes: s.Machine.NodesForFraction(s.Fraction)}
	rows := make([]sweepRow, len(s.Scales))
	for i, scale := range s.Scales {
		rc := s.Resilience
		rc.PeriodScale = scale
		rows[i] = sweepRow{labels: []string{report.F(scale)}, app: app, machine: s.Machine, model: model, rc: rc}
	}
	return s.sweep(t, rows, techniques, s.Trials, func(ti int) uint64 {
		return s.Seed ^ uint64(ti+301)*0x9e3779b97f4a7c15
	})
}

// SemiBlockingSpec configures the semi-blocking checkpoint extension
// study: technique efficiency as the compute rate sustained during
// checkpoint writes rises from 0 (the paper's blocking model) toward 1 —
// quantifying how much of checkpointing's cost the non-blocking schemes of
// the paper's related work (Coti et al., Ni et al.) could recover.
type SemiBlockingSpec struct {
	Config
	// Class and Fraction pick the application (defaults C64 at 50%,
	// where blocking checkpoint overhead is pronounced).
	Class    workload.Class
	Fraction float64
	// Rates is the sweep (default 0, 0.25, 0.5, 0.75).
	Rates []float64
	// Trials per point (the registry's default: 200).
	Trials int
}

// Run executes the study.
func (s SemiBlockingSpec) Run() (*report.Table, SweepResult, error) {
	if s.Class.Name == "" {
		s.Class = workload.C64
	}
	if s.Fraction == 0 {
		s.Fraction = 0.50
	}
	if s.Rates == nil {
		s.Rates = []float64{0, 0.25, 0.5, 0.75}
	}
	if err := s.Validate(); err != nil {
		return nil, SweepResult{}, err
	}
	model, err := s.model(0)
	if err != nil {
		return nil, SweepResult{}, err
	}

	techniques := []core.Technique{core.CheckpointRestart, core.MultilevelCheckpoint}
	t := report.New(
		fmt.Sprintf("Semi-blocking checkpoint extension (%s at %s of the machine)", s.Class.Name, fracLabel(s.Fraction)),
		techColumns(techniques, "overlap rate")...)
	t.AddNote("overlap rate 0 is the paper's blocking model; higher rates keep computing during checkpoint writes")
	t.AddNote("mean ± stddev of %d trials", s.Trials)

	app := workload.App{Class: s.Class, TimeSteps: 1440, Nodes: s.Machine.NodesForFraction(s.Fraction)}
	rows := make([]sweepRow, len(s.Rates))
	for i, rate := range s.Rates {
		rc := s.Resilience
		rc.CheckpointComputeRate = rate
		rows[i] = sweepRow{labels: []string{report.F(rate)}, app: app, machine: s.Machine, model: model, rc: rc}
	}
	return s.sweep(t, rows, techniques, s.Trials, func(ti int) uint64 {
		return s.Seed ^ uint64(ti+501)*0x9e3779b97f4a7c15
	})
}

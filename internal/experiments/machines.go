package experiments

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/report"
	"exaresil/internal/selection"
	"exaresil/internal/workload"
)

// MachinesSpec configures the cross-machine study: each technique's
// efficiency for the same application class at the same machine *fraction*
// on today's reference machine (Sunway TaihuLight, ~40k nodes) and on the
// projected exascale machine — making the paper's framing concrete: an
// application "considered large today" is a rounding error at exascale,
// and techniques that are fine at petascale fall over at the next scale.
type MachinesSpec struct {
	Config
	// Machines are the platforms to compare (default: TaihuLight and the
	// exascale projection, both at the Config's severity distribution and
	// each machine's own MTBF).
	Machines []machine.Config
	// Class and Fraction pick the application (defaults C64 at 25%).
	Class    workload.Class
	Fraction float64
	// Trials per cell (the registry's default: 200).
	Trials int
}

// Run executes the study.
func (s MachinesSpec) Run() (*report.Table, SweepResult, error) {
	if s.Machines == nil {
		s.Machines = []machine.Config{machine.SunwayTaihuLight(), machine.Exascale()}
	}
	if s.Class.Name == "" {
		s.Class = workload.C64
	}
	if s.Fraction == 0 {
		s.Fraction = 0.25
	}
	if err := s.SeverityPMF.Validate(); err != nil {
		return nil, SweepResult{}, err
	}
	if err := s.Resilience.Validate(); err != nil {
		return nil, SweepResult{}, err
	}

	rows := make([]sweepRow, len(s.Machines))
	for i, cfg := range s.Machines {
		if err := cfg.Validate(); err != nil {
			return nil, SweepResult{}, err
		}
		model, err := failures.NewModel(cfg.MTBF, s.SeverityPMF)
		if err != nil {
			return nil, SweepResult{}, err
		}
		app := workload.App{Class: s.Class, TimeSteps: 1440, Nodes: cfg.NodesForFraction(s.Fraction)}
		rows[i] = sweepRow{labels: []string{cfg.Name, report.I(app.Nodes)}, app: app, machine: cfg, model: model, rc: s.Resilience}
	}

	// The paper's five: the cross-machine table is a 2017-exhibit
	// companion, so its shape stays pinned as the technique menu grows.
	techniques := core.PaperTechniques()
	t := report.New(
		fmt.Sprintf("Cross-machine comparison (%s at %s of each machine)", s.Class.Name, fracLabel(s.Fraction)),
		techColumns(techniques, "machine", "nodes used")...)
	t.AddNote("same application class and machine fraction; each machine at its own MTBF")
	t.AddNote("mean ± stddev of %d trials", s.Trials)
	return s.sweep(t, rows, techniques, s.Trials, func(ti int) uint64 {
		return s.Seed ^ uint64(ti+401)*0x9e3779b97f4a7c15
	})
}

// PolicyTable renders the Resilience Selection policy the Section VII
// study learns: the winning technique and per-candidate probe efficiencies
// for every (class, size) cell. Its Progress cells are the probe cells.
func PolicyTable(cfg Config, opts selection.Options) (*report.Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model, err := cfg.model(0)
	if err != nil {
		return nil, err
	}
	sel, err := cfg.selector(model, opts, 0xa0761d6478bd642f, 0)
	if err != nil {
		return nil, err
	}

	t := report.New("Resilience Selection policy (probe efficiencies per cell)",
		techColumns(sel.Techniques(), "class", "size", "best technique")...)
	t.AddNote("machine %s; the chooser picks the row's best technique for arriving applications", cfg.Machine.Name)
	for _, c := range sel.Choices() {
		row := []string{c.Class.Name, fracLabel(c.Fraction), c.Best.String()}
		for _, e := range c.Efficiency {
			row = append(row, fmt.Sprintf("%.3f", e))
		}
		t.AddRow(row...)
	}
	return t, nil
}

package experiments

import (
	"fmt"
	"slices"

	"exaresil/internal/appsim"
	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/report"
	"exaresil/internal/resilience"
	"exaresil/internal/stats"
	"exaresil/internal/workload"
)

// This file is the one trial loop behind Figures 1-3 and the five
// extension sweeps (ext-mtbf, ext-weibull, ext-tau, ext-semiblocking,
// ext-machines): the Monte-Carlo efficiency of each technique as one
// parameter varies, a table row per parameter value and a column per
// technique. Each spec builds its rows and its table; the driver runs the
// cells.

// sweepRow is one table row: the label cells the table prints, and the
// application, machine, failure model and technique parameters every cell
// of the row runs under.
type sweepRow struct {
	labels  []string
	app     workload.App
	machine machine.Config
	model   *failures.Model
	rc      resilience.Config
}

// SweepPoint is one cell of a sweep: a technique in a row.
type SweepPoint struct {
	Technique core.Technique
	// Row is the row's label as the table prints it: a machine fraction
	// ("25%"), a swept value ("2.5"), or a machine name
	// ("sunway-taihulight").
	Row        string
	Nodes      int
	Efficiency stats.Summary
	Completion float64
}

// SweepResult is a sweep's full data set, in table order.
type SweepResult struct{ Points []SweepPoint }

// Point finds one technique/row pair.
func (r SweepResult) Point(t core.Technique, row string) (SweepPoint, bool) {
	for _, p := range r.Points {
		if p.Technique == t && p.Row == row {
			return p, true
		}
	}
	return SweepPoint{}, false
}

// sweep runs every (row, technique) cell in table order, each as trials
// Monte-Carlo runs seeded by seed(ti) for the ti-th technique, adds one
// row of mean ± stddev efficiencies to t per sweepRow, and returns t with
// the cells. Every executor reports to c.Obs.
func (c Config) sweep(t *report.Table, rows []sweepRow, techniques []core.Technique,
	trials int, seed func(ti int) uint64) (*report.Table, SweepResult, error) {
	rm := resilience.NewMetrics(c.Obs)
	var result SweepResult
	for _, r := range rows {
		cells := slices.Clip(r.labels)
		for ti, tech := range techniques {
			x, err := resilience.New(tech, r.app, r.machine, r.model, r.rc)
			if err != nil {
				return nil, SweepResult{}, fmt.Errorf("experiments: %v at %s: %w", tech, r.labels[0], err)
			}
			resilience.Instrument(x, rm)
			st := appsim.Run(appsim.TrialSpec{
				Executor: x,
				Trials:   trials,
				Seed:     seed(ti),
				Workers:  c.workers(),
			})
			result.Points = append(result.Points, SweepPoint{
				Technique:  tech,
				Row:        r.labels[0],
				Nodes:      r.app.Nodes,
				Efficiency: st.Efficiency,
				Completion: st.CompletionRate,
			})
			cells = append(cells, report.Eff(st.Efficiency.Mean, st.Efficiency.StdDev))
		}
		t.AddRow(cells...)
	}
	return t, result, nil
}

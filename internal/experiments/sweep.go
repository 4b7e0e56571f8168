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

// sweep runs every (row, technique) cell in table order, one cell at a
// time with the worker budget on its trials, each as trials Monte-Carlo
// runs seeded by seed(ti) for the ti-th technique. It adds one row of
// mean ± stddev efficiencies to t per sweepRow, and returns t with the
// cells. Every executor reports to c.Obs.
func (c Config) sweep(t *report.Table, rows []sweepRow, techniques []core.Technique,
	trials int, seed func(ti int) uint64) (*report.Table, SweepResult, error) {
	if err := positive("trials", trials); err != nil {
		return nil, SweepResult{}, err
	}
	rm := resilience.NewMetrics(c.Obs)
	nt := len(techniques)
	vals, err := c.cells(len(rows)*nt, summaryWidth+1, false, func(i, workers int) ([]float64, error) {
		r, ti := rows[i/nt], i%nt
		x, err := resilience.New(techniques[ti], r.app, r.machine, r.model, r.rc)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v at %s: %w", techniques[ti], r.labels[0], err)
		}
		st := appsim.Run(appsim.TrialSpec{Executor: x, Metrics: rm, Trials: trials, Seed: seed(ti), Workers: workers})
		return append(summaryValues(st.Efficiency), st.CompletionRate), nil
	})
	if err != nil {
		return nil, SweepResult{}, err
	}
	var result SweepResult
	for ri, r := range rows {
		cells := slices.Clip(r.labels)
		for ti, tech := range techniques {
			v := vals[ri*nt+ti]
			eff := summaryOf(v)
			result.Points = append(result.Points, SweepPoint{
				Technique:  tech,
				Row:        r.labels[0],
				Nodes:      r.app.Nodes,
				Efficiency: eff,
				Completion: v[summaryWidth],
			})
			cells = append(cells, report.Eff(eff.Mean, eff.StdDev))
		}
		t.AddRow(cells...)
	}
	return t, result, nil
}

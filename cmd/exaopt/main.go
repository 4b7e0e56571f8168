// Command exaopt explores checkpoint costs and optimal checkpoint
// schedules for an application on the simulated machine: the one-way
// cost equations (Eqs. 3, 5, 6), Young's and Daly's single-level optimal
// periods (Eq. 4), and the optimized three-level multilevel schedule.
//
// Usage:
//
//	exaopt [-class C64] [-fraction 0.25] [-mtbf-years 10]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/report"
	"exaresil/internal/resilience"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "exaopt: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("exaopt", flag.ContinueOnError)
	className := fs.String("class", "C64", "application class (Table I name)")
	fraction := fs.Float64("fraction", 0.25, "fraction of the machine the application occupies")
	mtbfYears := fs.Float64("mtbf-years", 10, "per-node MTBF in years")
	if err := fs.Parse(args); err != nil {
		return err
	}

	class, ok := workload.ClassByName(*className)
	if !ok {
		return fmt.Errorf("unknown class %q (want one of A32..D64)", *className)
	}
	if *fraction <= 0 || *fraction > 1 {
		return fmt.Errorf("fraction %v outside (0, 1]", *fraction)
	}
	if *mtbfYears <= 0 {
		return fmt.Errorf("mtbf-years must be positive")
	}

	cfg := machine.Exascale().WithMTBF(units.Duration(*mtbfYears) * units.Year)
	model, err := failures.NewModel(cfg.MTBF, failures.DefaultSeverityPMF())
	if err != nil {
		return err
	}
	app := workload.App{
		Class:     class,
		TimeSteps: 1440,
		Nodes:     cfg.NodesForFraction(*fraction),
	}
	costs := resilience.ComputeCosts(app, cfg)
	rate := model.Rate(app.Nodes)

	t := report.New(fmt.Sprintf("Checkpoint planning for %s on %d nodes (%s MTBF %.3g y)",
		class.Name, app.Nodes, cfg.Name, *mtbfYears),
		"quantity", "value")
	t.AddRow("application failure rate lambda_a", rate.String())
	t.AddRow("mean time between app failures", rate.MeanInterval().String())
	t.AddRow("PFS checkpoint cost (Eq. 3)", costs.PFS.String())
	t.AddRow("L1 (local RAM) checkpoint cost (Eq. 5)", costs.L1.String())
	t.AddRow("L2 (partner RAM) checkpoint cost (Eq. 6)", costs.L2.String())

	young := resilience.YoungPeriod(costs.PFS, rate)
	t.AddRow("Young period for PFS checkpoints", young.String())
	if tau, ok := resilience.DalyPeriod(costs.PFS, rate); ok {
		t.AddRow("Daly period for PFS checkpoints (Eq. 4)", tau.String())
		overhead := float64(costs.PFS) / float64(tau+costs.PFS)
		t.AddRow("PFS checkpointing overhead bound", fmt.Sprintf("%.1f%%", 100*overhead))
	} else {
		t.AddRow("Daly period for PFS checkpoints (Eq. 4)", "non-positive: CR cannot run")
	}
	if tau, ok := resilience.DalyPeriod(costs.L2, rate); ok {
		t.AddRow("Daly period for in-memory checkpoints", tau.String())
	}

	sched, err := resilience.OptimizeMultilevel(costs,
		model.SeverityRates(app.Nodes), resilience.DefaultMultilevelConfig())
	if err != nil {
		t.AddRow("multilevel schedule", fmt.Sprintf("infeasible: %v", err))
	} else {
		t.AddRow("multilevel base interval", sched.Interval.String())
		t.AddRow("multilevel pattern", fmt.Sprintf("L2 every %d, L3 every %d checkpoints",
			sched.L1PerL2, sched.L1PerL2*sched.L2PerL3))
		stretch := sched.ExpectedStretch(costs, model.SeverityRates(app.Nodes))
		if !math.IsInf(stretch, 1) {
			t.AddRow("multilevel expected stretch", fmt.Sprintf("%.4f", stretch))
		}
	}
	t.Render(os.Stdout)
	return nil
}

// Command exatrace simulates one application execution under a resilience
// technique and prints its event timeline: checkpoints, failures,
// restores, and completion — the raw material behind every aggregate
// number the studies report.
//
// Usage:
//
//	exatrace [-tech pr] [-class C64] [-fraction 0.25] [-steps 1440]
//	         [-mtbf-years 10] [-seed 1] [-limit 40] [-jsonl out.jsonl]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/trace"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "exatrace: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("exatrace", flag.ContinueOnError)
	techName := fs.String("tech", "pr", "technique: "+strings.Join(core.TechniqueSpellings(), ", "))
	className := fs.String("class", "C64", "application class (Table I name)")
	fraction := fs.Float64("fraction", 0.25, "fraction of the machine")
	steps := fs.Int("steps", 1440, "application time steps (minutes of work)")
	mtbfYears := fs.Float64("mtbf-years", 10, "per-node MTBF in years")
	seed := fs.Uint64("seed", 1, "random seed")
	limit := fs.Int("limit", 40, "max timeline lines (0 = unlimited)")
	jsonl := fs.String("jsonl", "", "also write the full trace as JSON Lines to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tech, err := core.ParseTechnique(*techName)
	if err != nil {
		return err
	}
	class, ok := workload.ClassByName(*className)
	if !ok {
		return fmt.Errorf("unknown class %q", *className)
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
		TimeSteps: *steps,
		Nodes:     cfg.NodesForFraction(*fraction),
	}
	x, err := resilience.New(tech, app, cfg, model, resilience.DefaultConfig())
	if err != nil {
		return err
	}
	if ok, reason := x.Viable(); !ok {
		return fmt.Errorf("%v cannot run %s at %.0f%%: %s", tech, class.Name, 100**fraction, reason)
	}

	rec := &trace.Recorder{}
	rt := resilience.NewRuntime(nil)
	rt.Observer = rec.Observe
	horizon := units.Duration(100 * float64(app.Baseline()))
	res := rt.Run(x, horizon, rng.New(*seed))

	fmt.Printf("%v executing %v\n\n", tech, app)
	if rec.Len() > 0 {
		if err := rec.WriteTimeline(os.Stdout, *limit); err != nil {
			return err
		}
		fmt.Printf("\n%v\n", rec.Summarize())
	} else {
		// The Ideal baseline runs failure- and overhead-free: it has no
		// timeline to draw, only its Result.
		fmt.Printf("%v emits no trace events\n", tech)
	}
	fmt.Println(res)

	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteJSONL(f); err != nil {
			return err
		}
		fmt.Printf("(full trace written to %s)\n", *jsonl)
		return f.Close()
	}
	return nil
}

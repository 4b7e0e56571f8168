// Command exasim regenerates every table and figure of "An Analysis of
// Resilience Techniques for Exascale Computing Platforms" (IPDPSW 2017)
// from the exaresil simulation library.
//
// Usage:
//
//	exasim [flags] <exhibit>...
//
// where each exhibit is a name from the experiments registry — the
// paper's table1, table2 and fig1-fig5, the repository's extension
// studies — or a group: all (the paper's exhibits) or ext-all (the
// extensions). An unknown name is a usage error that lists every accepted
// name. With no exhibit arguments, "all" is assumed.
//
// Flags:
//
//	-trials N     Monte-Carlo trials per cell of fig1-3, ext-energy,
//	              ext-mtbf, ext-weibull, ext-tau, ext-semiblocking and
//	              ext-machines; ext-menu2 runs N/2 antithetic pairs per arm
//	              and policy N/4 probes per cell, each at least 1 (default
//	              0: each exhibit's registry row, 200 as in the paper)
//	-patterns N   arrival patterns per cell of the cluster exhibits: fig4,
//	              fig5, ext-backfill, ext-selectors, ext-hetero (default
//	              0: the registry row's 50)
//	-seed N       master random seed (default the paper-epoch constant)
//	-csv DIR      additionally write each exhibit as DIR/<name>.csv
//	-chart        additionally render figures as ASCII bar charts
//	-metrics F    collect simulation metrics across the whole run and
//	              write them to F on exit — Prometheus text exposition
//	              format, or a JSON snapshot when F ends in .json
//	              ("-" writes to stdout)
//	-workers N    worker goroutines (default all CPUs)
//	-cpuprofile F write a pprof CPU profile of the whole run to F
//	-memprofile F write a pprof allocation profile to F on exit
//
// Profiles are analyzed with the standard toolchain, e.g.
// `go tool pprof exasim cpu.out`.
//
// The whole invocation is validated before any exhibit runs: unknown
// exhibit names, negative -trials/-patterns, and -metrics paths with
// an unsupported extension are usage errors and exit 2 immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/obs"
	"exaresil/internal/report"
)

// usageError marks a command-line mistake caught before any work starts:
// the process exits 2 with a usage hint instead of failing mid-run.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return usageError{msg: fmt.Sprintf(format, args...)}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "exasim: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			fmt.Fprintf(os.Stderr, "usage: exasim [flags] <exhibit>...\nrun 'exasim -h' for flag help\n")
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// validMetricsPath reports whether -metrics points somewhere writeMetrics
// understands: stdout ("-"), a JSON snapshot (.json), or the Prometheus
// text exposition format (.prom, .txt, or no extension).
func validMetricsPath(path string) bool {
	if path == "-" {
		return true
	}
	switch filepath.Ext(path) {
	case "", ".json", ".prom", ".txt":
		return true
	default:
		return false
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("exasim", flag.ContinueOnError)
	scale := scaleFlags(fs)
	seed := fs.Uint64("seed", 0, "master random seed (0 = default)")
	csvDir := fs.String("csv", "", "directory to write CSV copies of each exhibit")
	chart := fs.Bool("chart", false, "render figures as ASCII bar charts too")
	metricsPath := fs.String("metrics", "", "write run metrics to this file (Prometheus text; JSON if it ends in .json; - for stdout)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all CPUs)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Validate the whole invocation before any exhibit runs: a typo in the
	// last exhibit name must not cost a full regeneration of the first.
	params := scale()
	if params.Trials < 0 || params.Patterns < 0 {
		return usagef("-trials and -patterns must be non-negative, got %d and %d", params.Trials, params.Patterns)
	}
	if *workers < 0 {
		return usagef("-workers must be non-negative, got %d", *workers)
	}
	if *metricsPath != "" && !validMetricsPath(*metricsPath) {
		return usagef("-metrics %s: unsupported extension %s (want .json, .prom, .txt, no extension, or -)",
			*metricsPath, filepath.Ext(*metricsPath))
	}
	expanded, err := experiments.ExpandNames(fs.Args())
	if err != nil {
		return usageError{msg: err.Error()}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "exasim: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "exasim: memprofile: %v\n", err)
			}
		}()
	}

	cfg := experiments.Default()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers
	if *metricsPath != "" {
		cfg.Obs = obs.NewRegistry()
	}

	for _, name := range expanded {
		start := time.Now()
		t, ch, err := exhibit(name, cfg, params)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		if *chart && ch != nil {
			fmt.Println()
			ch.Render(os.Stdout)
		}
		fmt.Printf("(%s regenerated in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(t, *csvDir, name); err != nil {
				return err
			}
		}
	}
	if *metricsPath != "" {
		if err := writeMetrics(cfg.Obs, *metricsPath); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	return nil
}

// writeMetrics dumps the run's registry: Prometheus text exposition by
// default, a JSON snapshot when the path ends in .json, stdout for "-".
func writeMetrics(r *obs.Registry, path string) error {
	var w *os.File
	if path == "-" {
		w = os.Stdout
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if strings.HasSuffix(path, ".json") {
		if err := r.WriteJSON(w); err != nil {
			return err
		}
	} else if err := r.WriteProm(w); err != nil {
		return err
	}
	if path != "-" {
		fmt.Printf("(metrics written to %s)\n", path)
		return w.Close()
	}
	return nil
}

// scalingChart draws a Figure 1/2/3 data set as grouped bars, one group
// per machine fraction.
func scalingChart(res experiments.SweepResult) *report.BarChart {
	return groupedChart("efficiency", 1, res.Points,
		func(p experiments.SweepPoint) string { return p.Row + " of the machine" },
		func(p experiments.SweepPoint) report.Bar {
			return report.Bar{Label: p.Technique.String(), Value: p.Efficiency.Mean, Err: p.Efficiency.StdDev}
		})
}

// clusterChart draws a Figure 4-style data set as grouped bars, one group
// per scheduler.
func clusterChart(res experiments.ClusterResult) *report.BarChart {
	return groupedChart("% dropped", 100, res.Cells,
		func(c experiments.ClusterCell) string { return c.Scheduler.String() },
		func(c experiments.ClusterCell) report.Bar {
			return report.Bar{Label: c.Technique.String(), Value: c.Dropped.Mean, Err: c.Dropped.StdDev}
		})
}

// groupedChart draws one bar per point, grouped by key: groups in the
// order their key first appears, bars in point order within a group.
func groupedChart[P any](unit string, ceiling float64, points []P,
	key func(P) string, bar func(P) report.Bar) *report.BarChart {
	c := report.NewBarChart("", unit)
	c.Max = ceiling
	var keys []string
	groups := map[string][]report.Bar{}
	for _, p := range points {
		k := key(p)
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], bar(p))
	}
	for _, k := range keys {
		c.AddGroup(k, groups[k]...)
	}
	return c
}

// scaleFlags declares -trials and -patterns on fs and returns their
// parsed values as registry Params. Both default to 0: each exhibit's
// registry row, as a spec that omits them asks the service for.
func scaleFlags(fs *flag.FlagSet) func() experiments.Params {
	trials := fs.Int("trials", 0, "Monte-Carlo trials per cell of the trial-based exhibits (ext-menu2: N/2 pairs, policy: N/4 probes; 0 = the exhibit's default, 200)")
	patterns := fs.Int("patterns", 0, "arrival patterns per cell of the cluster exhibits (0 = the exhibit's default, 50)")
	return func() experiments.Params { return experiments.Params{Trials: *trials, Patterns: *patterns} }
}

// exhibit resolves one exhibit name through the shared registry and builds
// its chart. The chart is non-nil for exhibits with a natural bar
// rendering.
func exhibit(name string, cfg experiments.Config, p experiments.Params) (*report.Table, *report.BarChart, error) {
	ex, ok := experiments.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown exhibit %q", name)
	}
	t, res, err := ex.Run(cfg, p)
	if err != nil {
		return nil, nil, err
	}
	switch ex.Chart {
	case experiments.ChartScaling:
		return t, scalingChart(res.(experiments.SweepResult)), nil
	case experiments.ChartCluster:
		return t, clusterChart(res.(experiments.ClusterResult)), nil
	default:
		return t, nil, nil
	}
}

// writeCSV writes the exhibit's CSV companion file.
func writeCSV(t *report.Table, dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("(csv written to %s)\n\n", path)
	return f.Close()
}

// Command exabench runs the repository's benchmark table (internal/bench,
// the entries `go test -bench .` runs at the root) through
// testing.Benchmark and writes a machine-readable summary so performance
// regressions can be tracked between commits without parsing `go test
// -bench` text output.
//
// Usage:
//
//	exabench [flags]
//
// Flags:
//
//	-out FILE      where to write the JSON summary (default BENCH_results.json)
//	-run NAME      run only benchmarks whose name contains NAME
//	-list          print the benchmark names and exit
//	-commit REV    stamp the report with a source revision (scripts/bench.sh
//	               passes the current git commit)
//	-baseline FILE compare against a previous report: print benchstat-style
//	               ns/op, B/op, and allocs/op deltas per benchmark and exit
//	               non-zero if any benchmark regressed by more than 10% in
//	               allocations, or in time on its run and on the median of
//	               five reruns, or if the report was recorded at another
//	               GOMAXPROCS or Go version
//
// Each entry reports ns/op, bytes/op, and allocs/op. The JSON schema:
//
//	{
//	  "go_version": "go1.24.x",
//	  "gomaxprocs": 8,
//	  "commit": "7a8911d",
//	  "date": "2026-01-02T15:04:05Z",
//	  "results": [
//	    {"name": "fig1", "iterations": 18, "ns_per_op": 6.1e7,
//	     "bytes_per_op": 29000000, "allocs_per_op": 700000},
//	    ...
//	  ]
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"exaresil/internal/bench"
)

// benchResult is one benchmark's summary line.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchReport is the file-level schema.
type benchReport struct {
	GoVersion  string        `json:"go_version"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Commit     string        `json:"commit,omitempty"`
	Date       string        `json:"date,omitempty"`
	Results    []benchResult `json:"results"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "exabench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("exabench", flag.ContinueOnError)
	out := fs.String("out", "BENCH_results.json", "output JSON file")
	match := fs.String("run", "", "run only benchmarks whose name contains this substring")
	list := fs.Bool("list", false, "list benchmark names and exit")
	commit := fs.String("commit", "", "source revision to stamp into the report")
	baseline := fs.String("baseline", "", "previous report of the same width and Go version to diff against (non-zero exit on >10% regression)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	table := bench.Table()
	if *list {
		for _, e := range table {
			fmt.Println(e.Name)
		}
		return nil
	}

	var base *benchReport
	if *baseline != "" {
		var err error
		if base, err = readReport(*baseline); err != nil {
			return fmt.Errorf("reading baseline: %w", err)
		}
	}

	report := benchReport{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Commit:     *commit,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	for _, e := range table {
		if *match != "" && !strings.Contains(e.Name, *match) {
			continue
		}
		fmt.Fprintf(os.Stderr, "exabench: running %s...\n", e.Name)
		r := testing.Benchmark(e.Fn)
		res := benchResult{
			Name:        e.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		report.Results = append(report.Results, res)
		fmt.Printf("%-24s %12d ns/op %12d B/op %10d allocs/op\n",
			e.Name, int64(res.NsPerOp), res.BytesPerOp, res.AllocsPerOp)
	}
	if len(report.Results) == 0 {
		return fmt.Errorf("no benchmarks matched %q", *match)
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exabench: wrote %s\n", *out)
	if err := f.Close(); err != nil {
		return err
	}
	if base != nil {
		return diffReports(os.Stdout, base, &report, func(name string) float64 {
			for _, e := range table {
				if e.Name == name {
					r := testing.Benchmark(e.Fn)
					return float64(r.T.Nanoseconds()) / float64(r.N)
				}
			}
			return 0
		})
	}
	return nil
}

// readReport loads a previously written benchmark report.
func readReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Results) == 0 {
		return nil, fmt.Errorf("%s: report has no results", path)
	}
	return &r, nil
}

// regressionThreshold is the relative growth in ns/op or allocs/op beyond
// which diffReports declares a regression. Allocation counts repeat
// within 2% at one width, so one run catches any real leak. Timing on a
// shared machine is noisy — rerunning the tree that wrote the baseline
// flagged 10 of 28 entries on ns/op alone at GOMAXPROCS=2 — so an entry
// flagged on ns/op alone is rerun timeReruns times and stays flagged only
// if the median of those reruns is still over the threshold.
const (
	regressionThreshold = 0.10
	timeReruns          = 5
)

// diffReports prints a benchstat-style delta table between a baseline
// report and the current run, and returns an error if any benchmark
// regressed by more than regressionThreshold in allocations, or in time
// on both its run and the median of timeReruns calls of rerun (which
// returns one more run's ns/op of the named entry). Benchmarks present on
// only one side are reported but never gate. A baseline recorded at
// another GOMAXPROCS or Go version is refused: an exhibit entry clones
// one executor per worker, so its allocations scale with the width.
func diffReports(w io.Writer, base, cur *benchReport, rerun func(name string) float64) error {
	if base.GoMaxProcs != cur.GoMaxProcs || base.GoVersion != cur.GoVersion {
		return fmt.Errorf("baseline was recorded at gomaxprocs %d with %s, this run at gomaxprocs %d with %s; "+
			"compare reports of one width and toolchain", base.GoMaxProcs, base.GoVersion, cur.GoMaxProcs, cur.GoVersion)
	}
	old := make(map[string]benchResult, len(base.Results))
	for _, r := range base.Results {
		old[r.Name] = r
	}
	label := base.Commit
	if label == "" {
		label = "baseline"
	}
	fmt.Fprintf(w, "\nbenchmark deltas vs %s:\n", label)
	fmt.Fprintf(w, "%-24s %13s %13s %8s   %13s %13s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	var regressed []string
	for _, r := range cur.Results {
		o, ok := old[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-24s %13s %13.0f %8s   %13s %13d %8s\n",
				r.Name, "-", r.NsPerOp, "new", "-", r.AllocsPerOp, "new")
			continue
		}
		delete(old, r.Name)
		dt := relDelta(o.NsPerOp, r.NsPerOp)
		da := relDelta(float64(o.AllocsPerOp), float64(r.AllocsPerOp))
		fmt.Fprintf(w, "%-24s %13.0f %13.0f %+7.1f%%   %13d %13d %+7.1f%%\n",
			r.Name, o.NsPerOp, r.NsPerOp, 100*dt, o.AllocsPerOp, r.AllocsPerOp, 100*da)
		if o.BytesPerOp != r.BytesPerOp {
			fmt.Fprintf(w, "%-24s %13d %13d %+7.1f%% B/op\n",
				"", o.BytesPerOp, r.BytesPerOp, 100*relDelta(float64(o.BytesPerOp), float64(r.BytesPerOp)))
		}
		if da > regressionThreshold {
			regressed = append(regressed, fmt.Sprintf("%s allocs/op %+.0f%%", r.Name, 100*da))
		} else if dt > regressionThreshold {
			ns := make([]float64, timeReruns)
			for i := range ns {
				ns[i] = rerun(r.Name)
			}
			slices.Sort(ns)
			med := relDelta(o.NsPerOp, ns[timeReruns/2])
			fmt.Fprintf(w, "%-24s %13s %13.0f %+7.1f%%   median of %d reruns\n", "", "", ns[timeReruns/2], 100*med, timeReruns)
			if med > regressionThreshold {
				regressed = append(regressed, fmt.Sprintf("%s ns/op %+.0f%% (median of %d reruns %+.0f%%)", r.Name, 100*dt, timeReruns, 100*med))
			}
		}
	}
	for _, o := range base.Results {
		if _, ok := old[o.Name]; ok {
			fmt.Fprintf(w, "%-24s only in baseline\n", o.Name)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regression beyond %.0f%% in: %s",
			100*regressionThreshold, strings.Join(regressed, ", "))
	}
	fmt.Fprintln(w, "no regressions beyond the threshold")
	return nil
}

// relDelta is (new-old)/old, and zero when the baseline is zero.
func relDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old
}

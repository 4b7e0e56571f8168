// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — the paper's exhibits in-process (paper-batch), or served
// traffic through an in-process replica mesh over loopback HTTP
// (served-zipf) — checks every output, and prints one JSON
// line with the metrics. With --trace 0 it reports the end-to-end metrics;
// with --trace 1 it runs the workload again with registries, progress
// hooks and spans attached and reports the per-layer metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 45 --trace 0
//
// See perfbench/README.md for the workloads and metric definitions.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart approximates the process start for setup_s.
var processStart = time.Now()

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"scaling_s", "s"},
	{"cluster_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"saturated_rps", "jobs/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"experiments.fig1_s", "s"}, {"experiments.fig2_s", "s"}, {"experiments.fig3_s", "s"},
	{"experiments.fig4_s", "s"}, {"experiments.fig5_s", "s"},
	{"experiments.cells", "count"}, {"experiments.tail_share", "ratio"}, {"experiments.speedup_x", "x"},
	{"des.events_dispatched", "count"}, {"des.events_canceled", "count"},
	{"des.heap_depth_peak", "count"}, {"des.ns_per_event", "ns"},
	{"resilience.runs", "count"}, {"resilience.failures", "count"},
	{"resilience.rollbacks", "count"}, {"resilience.rework_share", "ratio"},
	{"cluster.apps_started", "count"}, {"cluster.mapper_invocations", "count"},
	{"cluster.dropped_share", "ratio"},
	{"selection.probes", "count"}, {"selection.schedule_cache_hit_share", "ratio"},
	{"report.csv_ms", "ms"},
	{"http.submit_ms", "ms"}, {"http.result_ms", "ms"}, {"http.result_bytes", "bytes"},
	{"http.handler_ms.submit", "ms"}, {"http.handler_ms.job", "ms"}, {"http.handler_ms.result", "ms"},
	{"http.client_self_ms", "ms"}, {"http.polls_per_job", "count"},
	{"serve.notify_lag_ms", "ms"},
	{"serve.queue_wait_ms.p50", "ms"}, {"serve.queue_wait_ms.p99", "ms"},
	{"serve.exec_ms.p50", "ms"}, {"serve.exec_ms.p99", "ms"},
	{"serve.hit_share", "ratio"}, {"serve.join_share", "ratio"}, {"serve.miss_share", "ratio"},
	{"serve.cache_evictions", "count"}, {"serve.executions_per_job", "ratio"},
	{"serve.reject_share", "ratio"}, {"mesh.admission_reject_share", "ratio"},
	{"mesh.route_imbalance", "x"}, {"mesh.spill_share", "ratio"},
	{"spec.key_us", "us"},
	{"load.lag_p99_ms", "ms"}, {"load.poll_interval_ms", "ms"}, {"load.samples", "count"},
	{"trace.overhead_share", "ratio"}, {"trace.stage_residual_ms", "ms"},
	{"failed_share", "ratio"},
}

// outcome is what a workload run returns: the metric values by name, the
// operation counts, and every output mismatch found.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	notes     []string // sample counts, percentiles and other context for the reader
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(seed uint64, seconds time.Duration, trace bool) (*outcome, error){
	"paper-batch": runPaperBatch,
	servedName:    runServed,
}

func main() {
	name := flag.String("workload", "", "workload: paper-batch or served-zipf")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 45, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	out, err := run(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		out.values["failed_share"] = share(float64(out.failed), float64(out.attempted))
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		out.values["peak_rss_mb"] = rss
	}
	rep := report{Correct: len(out.problems) == 0 && out.failed == 0, Attempted: out.attempted,
		Failed: out.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%d trace=%d gomaxprocs=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	for _, n := range out.notes {
		fmt.Fprintf(os.Stderr, "  note: %s\n", n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "  WRONG: %s\n", p)
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && *trace == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s reported no %s\n", *name, d.name)
			os.Exit(1)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

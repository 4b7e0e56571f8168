package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/obs"
)

// paperExhibits are the paper's figures; figs 1–3 are trial exhibits
// (scaling_s), figs 4–5 cluster exhibits (cluster_s).
var paperExhibits = []string{"fig1", "fig2", "fig3", "fig4", "fig5"}

// warmParams is the reduced scale of the set-up pass: enough to run every
// code path of the five exhibits once before timing starts.
var warmParams = experiments.Params{Trials: 8, Patterns: 2, Arrivals: 20}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// pass is one regeneration of fig1–fig5.
type pass struct {
	wall  map[string]time.Duration
	total time.Duration
	csv   time.Duration // Table.WriteCSV, timed from outside
	cells int           // grid cells reported through Progress.OnCell
	tail  time.Duration // cluster exhibits' time after the first worker ran out of cells
}

func (p pass) sum(names ...string) time.Duration {
	var d time.Duration
	for _, n := range names {
		d += p.wall[n]
	}
	return d
}

// readOracle loads the committed exhibit CSVs that a default-seed,
// paper-scale run must reproduce byte for byte.
func readOracle() (map[string][]byte, error) {
	want := map[string][]byte{}
	for _, n := range paperExhibits {
		b, err := os.ReadFile(filepath.Join("results", n+".csv"))
		if err != nil {
			return nil, fmt.Errorf("read oracle: %w", err)
		}
		want[n] = b
	}
	return want, nil
}

// runPass regenerates the five exhibits in order. With want set, each CSV
// must equal its oracle; with rec set, every exhibit reports its grid
// cells and gets a span.
func runPass(cfg experiments.Config, p experiments.Params, want map[string][]byte, rec *recorder, o *outcome) pass {
	res := pass{wall: map[string]time.Duration{}}
	root := rec.newID()
	passStart := time.Now()
	for _, name := range paperExhibits {
		o.attempted++
		ex, _ := experiments.Lookup(name)
		var mu sync.Mutex
		var cellTimes []time.Time
		if rec != nil {
			cfg.Progress = &experiments.Progress{OnCell: func(int, []float64) {
				now := time.Now()
				mu.Lock()
				cellTimes = append(cellTimes, now)
				mu.Unlock()
			}}
		}
		start := time.Now()
		t, _, err := ex.Run(cfg, p)
		end := time.Now()
		res.wall[name] = end.Sub(start)
		rec.add(span{Req: root, ID: rec.newID(), Parent: root, Name: "experiments." + name, Start: start, End: end})
		if err != nil {
			o.failed++
			o.fail("%s: %v", name, err)
			continue
		}
		var buf bytes.Buffer
		c0 := time.Now()
		err = t.WriteCSV(&buf)
		c1 := time.Now()
		res.csv += c1.Sub(c0)
		rec.add(span{Req: root, ID: rec.newID(), Parent: root, Name: "report.csv", Start: c0, End: c1})
		switch {
		case err != nil:
			o.failed++
			o.fail("%s: write csv: %v", name, err)
		case want != nil && !bytes.Equal(buf.Bytes(), want[name]):
			o.failed++
			o.fail("%s: CSV differs from results/%s.csv", name, name)
		}
		res.cells += len(cellTimes)
		res.tail += tailAfterFirstIdle(cellTimes, cfg.Workers, end)
	}
	res.total = time.Since(passStart)
	rec.add(span{Req: root, ID: root, Name: "pass", Start: passStart, End: passStart.Add(res.total)})
	return res
}

// tailAfterFirstIdle is the time from the moment the first of workers
// found no cell left to the exhibit's end. Cells are handed out from one
// queue, so once the (n-w+1)-th cell completes, its worker has nothing
// left to take.
func tailAfterFirstIdle(cells []time.Time, workers int, end time.Time) time.Duration {
	n := len(cells)
	if n == 0 {
		return 0
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Before(cells[j]) })
	return end.Sub(cells[max(0, n-workers)])
}

// setupPaper loads the oracle and runs a reduced pass to load code and
// lazy state, setupReps times; it returns the oracle and the median set-up
// time. The first repetition is timed from process start.
func setupPaper(cfg experiments.Config, o *outcome) (map[string][]byte, float64, error) {
	var want map[string][]byte
	var times []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		var err error
		if want, err = readOracle(); err != nil {
			return nil, 0, err
		}
		runPass(cfg, warmParams, nil, nil, o)
		times = append(times, time.Since(start).Seconds())
	}
	return want, median(times), nil
}

// runPaperBatch regenerates fig1–fig5 at the paper's scale and default
// seed, pass after pass, for the measurement window. Its inputs are fixed
// by design — the committed CSVs are its oracle — so the seed only labels
// the run.
func runPaperBatch(_ uint64, window time.Duration, trace bool) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	nproc := runtime.GOMAXPROCS(0)
	cfg := experiments.Default()
	cfg.Workers = nproc
	want, setup, err := setupPaper(cfg, o)
	if err != nil {
		return nil, err
	}
	o.attempted, o.failed = 0, 0 // set-up passes are not measured operations
	if trace {
		return tracePaper(cfg, want, o)
	}
	o.values["setup_s"] = setup

	var scaling, cluster, totals []float64
	start := time.Now()
	for len(totals) == 0 || time.Since(start) < window {
		p := runPass(cfg, experiments.Params{}, want, nil, o)
		scaling = append(scaling, sec(p.sum("fig1", "fig2", "fig3")))
		cluster = append(cluster, sec(p.sum("fig4", "fig5")))
		totals = append(totals, ms(p.total))
	}
	q, tail := tailQuantile(totals)
	o.values["scaling_s"] = median(scaling)
	o.values["cluster_s"] = median(cluster)
	o.values["job_p50_ms"] = median(totals)
	o.values["job_p99_ms"] = tail
	o.values["saturated_rps"] = float64(len(paperExhibits)) / (median(totals) / 1000)
	o.note("%d passes of %v ms (a job is one fig1-fig5 pass; tail at q=%.3f), %d workers", len(totals), roundMS(totals), q, nproc)
	return o, nil
}

// tracePaper is the traced paper-batch run: an untraced pass for the
// overhead baseline, a traced pass at nproc workers for the per-layer
// numbers, and a traced pass at one worker for the parallel speedup. The
// two traced passes must agree on every simulation count.
func tracePaper(cfg experiments.Config, want map[string][]byte, o *outcome) (*outcome, error) {
	base := runPass(cfg, experiments.Params{}, want, nil, o)

	rec := &recorder{}
	regWide := obs.NewRegistry()
	cfg.Obs = regWide
	wide := runPass(cfg, experiments.Params{}, want, rec, o)

	regOne := obs.NewRegistry()
	one := cfg
	one.Obs, one.Workers = regOne, 1
	narrow := runPass(one, experiments.Params{}, want, rec, o)

	layers := simLayers(regText(regWide))
	for k, v := range layers {
		o.values[k] = v
	}
	if diff := sameCounts(layers, simLayers(regText(regOne))); len(diff) > 0 {
		o.fail("simulation counts differ between %d workers and 1: %v", cfg.Workers, diff)
	}
	for _, n := range paperExhibits {
		o.values["experiments."+n+"_s"] = sec(wide.wall[n])
	}
	clusterWall := wide.sum("fig4", "fig5")
	o.values["experiments.cells"] = float64(wide.cells)
	o.values["experiments.tail_share"] = share(float64(wide.tail), float64(clusterWall))
	o.values["experiments.speedup_x"] = share(float64(narrow.total), float64(wide.total))
	o.values["des.ns_per_event"] = share(float64(wide.total)*float64(cfg.Workers), layers["des.events_dispatched"])
	o.values["report.csv_ms"] = ms(wide.csv)
	o.values["trace.overhead_share"] = share(float64(wide.total-base.total), float64(base.total))
	o.values["spec.key_us"] = specKeyMicros(paperSpecs())
	o.note("untraced pass %.3fs, traced pass %.3fs at %d workers, %.3fs at 1 worker",
		base.total.Seconds(), wide.total.Seconds(), cfg.Workers, narrow.total.Seconds())
	if err := writeSpans(filepath.Join(spanDir, "paper-batch.jsonl"), rec.all()); err != nil {
		return nil, err
	}
	return o, nil
}

// roundMS rounds millisecond readings for the report on standard error.
func roundMS(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x)
	}
	return out
}

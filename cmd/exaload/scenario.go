package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/load"
	"exaresil/internal/mesh"
	"exaresil/internal/rng"
	"exaresil/internal/serve"
	"exaresil/internal/serveclient"
)

// A scenario is one live end-to-end check of an exaserve binary: the
// flags it boots with, the traffic it drives, and the assertions over
// what that traffic observed. check reads only the observation, so every
// assertion is testable without a server.
type scenario struct {
	name, flags string
	drive       func(ctx context.Context, h *harness, o *observed) error
	check       func(o *observed) error
}

// scenarios is the live suite, in the order `exaload scenario all` runs it.
var scenarios = []scenario{
	{"serve", "-workers 2", driveServe, checkServe},
	{"chaos", "-workers 2 -chaos -chaos-latency-rate 0.15 -chaos-latency 20ms -chaos-error-rate 0.10 " +
		"-chaos-reset-rate 0.05 -chaos-crash-rate 0.30 -chaos-crash-cells 3", soak, checkChaos},
	{"mesh", "-workers 2 -replicas 3 -heartbeat-interval 25ms -heartbeat-timeout 200ms -mesh-kill-interval 500ms",
		driveMesh, checkMesh},
	{"load", "-workers 2", driveLoad, checkLoad},
	{"autoscale", "-workers 1 -autoscale -min-workers 1 -max-workers 6 -autoscale-interval 250ms " +
		"-autoscale-cooldown 500ms -cache 8192 -store 8192", driveAutoscale, checkAutoscale},
}

// observed is what one scenario's traffic saw; each scenario fills only
// its own fields.
type observed struct {
	metrics map[string]uint64 // the /metrics scrape (load.Scrape) after the traffic

	served, golden []byte // serve: the fig4 result and results/golden/fig4.csv
	pinned         string // serve: the manifest's fig4 digest
	resubmit       string // serve: the resubmission's cache disposition

	soak      soakTally // chaos, mesh: the retrying clients' tallies
	failovers [2]uint64 // mesh: /v1/mesh failovers before and after the soak

	sweeps          [2]string // load: two in-process sweep reports
	trace, recorded string    // load: the generated and re-recorded traces
	report, csv     string    // load: the live sweep's report and CSV

	autoscale bool      // autoscale: /healthz advertises the autoscaler
	workers   [3]uint64 // autoscale: pool width at start, peak and end
}

const (
	bootWait          = 10 * time.Second // start to a healthy /healthz
	drainWait         = 10 * time.Second // SIGTERM to exit
	scenarioBudget    = 5 * time.Minute  // boot, traffic and drain
	firstFailoverWait = 15 * time.Second // mesh: boot to the first failover
	coolOffWait       = 30 * time.Second // autoscale: load end to the floor
	soakClients       = 3
	soakRequests      = 8
	soakAttempts      = 10
	liveSweepSteps    = 3
)

// runScenario boots a fresh exaserve for the named scenario, or for each
// one in turn.
func runScenario(ctx context.Context, argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exaload scenario", flag.ExitOnError)
	bin := fs.String("exaserve", "exaserve", "exaserve binary to boot (a path, or a name on PATH)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	todo := slices.DeleteFunc(slices.Clone(scenarios), func(s scenario) bool {
		return fs.Arg(0) != "all" && fs.Arg(0) != s.name
	})
	if fs.NArg() != 1 || len(todo) == 0 {
		return usagef("scenario: want serve, chaos, mesh, load, autoscale or all; got %q", fs.Args())
	}
	for _, s := range todo {
		fmt.Fprintf(stdout, "== scenario %s\n", s.name)
		start := time.Now()
		if err := s.run(ctx, *bin, stdout); err != nil {
			return fmt.Errorf("scenario %s: %w", s.name, err)
		}
		fmt.Fprintf(stdout, "scenario %s OK in %s\n", s.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// run boots bin with the scenario's flags, drives the traffic, scrapes
// /metrics, checks the observation and drains the server. A failure
// carries the server's log.
func (s scenario) run(ctx context.Context, bin string, stdout io.Writer) error {
	ctx, cancel := context.WithTimeout(ctx, scenarioBudget)
	defer cancel()
	dir, err := os.MkdirTemp("", "exaload-scenario-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	h := &harness{out: stdout, dir: dir}
	if err = h.boot(bin, s.flags); err == nil {
		var o observed
		if err = s.drive(ctx, h, &o); err == nil {
			if o.metrics, err = load.Scrape(nil, h.base); err == nil {
				err = s.check(&o)
			}
		}
		if serr := h.stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		return fmt.Errorf("%w\nexaserve log:\n%s", err, h.log())
	}
	return nil
}

// harness is one exaserve process booted for a scenario.
type harness struct {
	base   string // http://ADDR, from the listening line
	out    io.Writer
	dir    string // scratch files; the server logs to dir/exaserve.log
	cmd    *exec.Cmd
	exited chan error // receives the process's exit status
}

// boot starts bin on an ephemeral loopback port, reads the bound address
// from its listening line, and waits for /healthz.
func (h *harness) boot(bin, flags string) error {
	logf, err := os.Create(filepath.Join(h.dir, "exaserve.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	h.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, strings.Fields(flags)...)...)
	h.cmd.Stderr = logf
	if err := h.cmd.Start(); err != nil {
		return err
	}
	h.exited = make(chan error, 1)
	go func() { h.exited <- h.cmd.Wait() }()
	err = poll(bootWait, func() (bool, error) {
		addr, ok := listenAddr(h.log())
		if !ok {
			return false, errors.New("exaserve logged no listening line")
		}
		h.base = "http://" + addr
		err := h.get("/healthz", nil)
		return err == nil, err
	})
	if err != nil {
		h.cmd.Process.Kill() // fails only if the process already exited; the wait below covers both
		<-h.exited
	}
	return err
}

// listenAddr extracts the bound address from exaserve's
// "listening on http://ADDR (...)" log line.
func listenAddr(log string) (string, bool) {
	_, rest, ok := strings.Cut(log, "listening on http://")
	addr, _, ended := strings.Cut(rest, " ")
	return addr, ok && ended && addr != ""
}

// stop sends SIGTERM and requires a drain: a zero exit within drainWait
// and the "drained" log line.
func (h *harness) stop() error {
	h.cmd.Process.Signal(syscall.SIGTERM) // an exited process reports its status below
	select {
	case err := <-h.exited:
		if err != nil {
			return fmt.Errorf("exaserve exited badly after SIGTERM: %w", err)
		}
	case <-time.After(drainWait):
		h.cmd.Process.Kill()
		<-h.exited
		return fmt.Errorf("exaserve did not drain within %s", drainWait)
	}
	if !strings.Contains(h.log(), "drained") {
		return errors.New("exaserve exited without its drained line")
	}
	return nil
}

// get fetches base+path, requires a 200, and decodes the JSON body into
// v unless v is nil.
func (h *harness) get(path string, v any) error {
	resp, err := http.Get(h.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	if err == nil && v != nil {
		err = json.Unmarshal(body, v)
	}
	return err
}

// log is the server's output so far. An unreadable log reads as empty,
// which boot and stop report as a missing line.
func (h *harness) log() string {
	b, _ := os.ReadFile(filepath.Join(h.dir, "exaserve.log"))
	return string(b)
}

// poll calls probe every 100 ms until it reports done or within elapses,
// and returns probe's last error. Probe errors are retried.
func poll(within time.Duration, probe func() (bool, error)) error {
	deadline := time.Now().Add(within)
	for {
		done, err := probe()
		if done || time.Now().After(deadline) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// require fails on the first of names the /metrics scrape m lacks.
func require(m map[string]uint64, names ...string) error {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			return fmt.Errorf("/metrics lacks %s", n)
		}
	}
	return nil
}

// driveServe runs the golden fig4 spec to completion, then resubmits it.
func driveServe(ctx context.Context, h *harness, o *observed) error {
	fig4 := serve.Spec{Exhibit: "fig4", Patterns: 6} // the reduced spec results/golden pins
	manifest, err := os.ReadFile("results/golden/manifest.txt")
	if err != nil {
		return fmt.Errorf("%w (run from the repository root)", err)
	}
	for _, line := range strings.Split(string(manifest), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == fig4.Exhibit {
			o.pinned = f[0]
		}
	}
	if o.golden, err = os.ReadFile("results/golden/fig4.csv"); err != nil {
		return err
	}
	cl := serveclient.New(h.base, serveclient.Options{MaxAttempts: 1})
	res, err := cl.Run(ctx, fig4)
	if err == nil {
		o.served = res.CSV
		res, err = cl.Run(ctx, fig4)
	}
	if err == nil {
		o.resubmit = res.Cache
	}
	return err
}

func checkServe(o *observed) error {
	sum := sha256.Sum256(o.served)
	switch {
	case fmt.Sprintf("%x", sum) != o.pinned:
		return fmt.Errorf("served fig4 sha256 %x, manifest pins %q", sum, o.pinned)
	case !bytes.Equal(o.served, o.golden):
		return errors.New("served fig4 differs from results/golden/fig4.csv")
	case o.resubmit != serve.CacheHit:
		return fmt.Errorf("resubmission was a cache %q, want a hit", o.resubmit)
	}
	return require(o.metrics, "exaresil_serve_jobs_total", "exaresil_serve_cache_requests_total",
		"exaresil_serve_queue_depth", "exaresil_serve_job_seconds_bucket", "exaresil_serve_http_requests_total")
}

func checkChaos(o *observed) error {
	if err := errors.Join(o.soak.err(), require(o.metrics, "exaresil_chaos_injected_total",
		"exaresil_serve_snapshots", "exaresil_serve_snapshot_cells_total", "exaresil_serve_jobs_total")); err != nil {
		return err
	}
	// A crash scheduled on a cell-less exhibit never fires, so crashes
	// alone do not imply resumes. But every failed job here is a landed
	// crash (no job timeout is set), and its retry must have resumed.
	failed := o.metrics[`exaresil_serve_jobs_total{state="failed"}`]
	switch {
	case o.metrics["exaresil_chaos_injected_total"] == 0:
		return errors.New("chaos never injected a fault")
	case failed > 0 && o.metrics["exaresil_serve_snapshot_resumes_total"] == 0:
		return fmt.Errorf("%d jobs crashed but nothing resumed from a snapshot", failed)
	}
	return nil
}

// driveMesh waits for the kill loop's first failover, so the soak cannot
// pass without a replica death, then soaks across kill/revive cycles.
func driveMesh(ctx context.Context, h *harness, o *observed) error {
	var v mesh.View
	err := poll(firstFailoverWait, func() (bool, error) {
		err := h.get("/v1/mesh", &v)
		return v.Failovers > 0, err
	})
	if o.failovers[0] = v.Failovers; err != nil || v.Failovers == 0 {
		return err
	}
	if err = soak(ctx, h, o); err != nil {
		return err
	}
	err = h.get("/v1/mesh", &v)
	o.failovers[1] = v.Failovers
	fmt.Fprintf(h.out, "mesh: %d failovers before the soak, %d after\n", o.failovers[0], o.failovers[1])
	return err
}

func checkMesh(o *observed) error {
	if o.failovers[0] == 0 {
		return fmt.Errorf("no replica failover within %s of boot", firstFailoverWait)
	}
	if err := errors.Join(o.soak.err(), require(o.metrics, "exaresil_mesh_failovers_total",
		"exaresil_mesh_revivals_total", "exaresil_mesh_routed_total", "exaresil_mesh_replica_up")); err != nil {
		return err
	}
	if o.failovers[1] == 0 || o.metrics["exaresil_mesh_failovers_total"] == 0 {
		return errors.New("the mesh reports zero failovers after the soak")
	}
	return nil
}

// soakVocab is the chaos and mesh soaks' spec mix: cheap exhibits spanning
// trial-based and grid (checkpointable) runs, repeated specs (cache hits
// and joins), and per-spec seeds (distinct cache keys).
var soakVocab = []serve.Spec{
	{Exhibit: "table1"},
	{Exhibit: "table2"},
	{Exhibit: "fig1", Trials: 2},
	{Exhibit: "fig1", Trials: 3},
	{Exhibit: "fig1", Trials: 2, Seed: 7},
	{Exhibit: "fig4", Patterns: 2, Arrivals: 8},
	{Exhibit: "fig4", Patterns: 2, Arrivals: 8, Seed: 7},
	{Exhibit: "fig4", Patterns: 3, Arrivals: 8},
}

type soakTally struct{ ok, failed, wrong int }

func (t soakTally) err() error {
	switch {
	case t.wrong > 0:
		return fmt.Errorf("%d wrong results: resilience must never corrupt an answer", t.wrong)
	case t.failed > 0:
		return fmt.Errorf("%d requests failed after %d attempts each", t.failed, soakAttempts)
	}
	return nil
}

// soak runs soakClients concurrent retrying clients, each issuing
// soakRequests uniform draws from soakVocab, and tallies every served
// digest against the one computed in-process.
func soak(ctx context.Context, h *harness, o *observed) error {
	want, err := expectedDigests()
	if err != nil {
		return err
	}
	var (
		t  = &o.soak
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := range uint64(soakClients) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := serveclient.New(h.base, serveclient.Options{MaxAttempts: soakAttempts, Seed: 1 + c})
			draws := rng.Stream(1, c+1)
			for range soakRequests {
				pick := int(draws.Float64() * float64(len(soakVocab)))
				res, err := cl.Run(ctx, soakVocab[pick])
				mu.Lock()
				switch {
				case err != nil:
					t.failed++
					fmt.Fprintf(h.out, "soak: request failed: %v\n", err)
				case res.Digest != want[pick]:
					t.wrong++
					fmt.Fprintf(h.out, "soak: WRONG RESULT for %s\n", soakVocab[pick].Canonical())
				default:
					t.ok++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Fprintf(h.out, "soak: %d ok, %d failed, %d wrong\n", t.ok, t.failed, t.wrong)
	return nil
}

// expectedDigests runs soakVocab in-process through serve.RunSpec, the
// server's default runner without chaos or failover, and returns the
// digests the served answers must match.
func expectedDigests() ([]string, error) {
	out := make([]string, len(soakVocab))
	for i, sp := range soakVocab {
		res, err := serve.RunSpec(experiments.Default(), sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Canonical(), err)
		}
		out[i] = res.Digest
	}
	return out, nil
}

// driveLoad runs exaload's own modes: the in-process sweep twice, then
// gen, replay, run and a small live sweep against the server.
func driveLoad(ctx context.Context, h *harness, o *observed) error {
	for i := range o.sweeps {
		var b strings.Builder
		if err := runSweep(ctx, []string{"-inproc"}, &b); err != nil {
			return err
		}
		o.sweeps[i] = b.String()
	}
	trace, recorded, csv := filepath.Join(h.dir, "trace"), filepath.Join(h.dir, "recorded"), filepath.Join(h.dir, "csv")
	err := runGen(ctx, []string{"-profile", "burst:base=2,peak=10,period=2,duty=0.3,dur=4", "-seed", "7", "-out", trace}, h.out)
	if err == nil {
		err = runReplay(ctx, []string{"-addr", h.base, "-trace", trace, "-speed", "2", "-record", recorded}, h.out)
	}
	if err == nil {
		err = runRun(ctx, []string{"-addr", h.base, "-profile", "constant:rate=8,dur=2", "-seed", "3"}, h.out)
	}
	var report strings.Builder
	if err == nil {
		err = runSweep(ctx, []string{"-addr", h.base, "-rates", "2,15,30", "-step-dur", "2", "-seed", "5", "-csv", csv},
			io.MultiWriter(h.out, &report))
	}
	if err != nil {
		return err
	}
	o.report = report.String()
	for path, dst := range map[string]*string{trace: &o.trace, recorded: &o.recorded, csv: &o.csv} {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		*dst = string(b)
	}
	return nil
}

func checkLoad(o *observed) error {
	rows := strings.Split(strings.TrimSpace(o.csv), "\n")
	switch {
	case o.sweeps[0] != o.sweeps[1]:
		return errors.New("the in-process sweep differs between two runs")
	case !strings.Contains(o.sweeps[0], "knee at"):
		return errors.New("the in-process sweep found no knee")
	case strings.Count(o.trace, "\n") < 2:
		return errors.New("the generated trace lacks a header plus events")
	case !strings.Contains(o.recorded, `"outcome":"ok"`):
		return errors.New("the re-recorded trace holds no ok outcomes")
	case !strings.Contains(o.report, "Saturation sweep"):
		return errors.New("the live sweep produced no report")
	case !strings.Contains(o.report, "knee at") && !strings.Contains(o.report, "no knee"):
		return errors.New("the live sweep rendered no knee verdict")
	case !strings.Contains(rows[0], "rate_rps"):
		return fmt.Errorf("the live sweep CSV lacks its header: %q", rows[0])
	case len(rows)-1 != liveSweepSteps:
		return fmt.Errorf("the live sweep CSV has %d data rows, want %d", len(rows)-1, liveSweepSteps)
	}
	return nil
}

// driveAutoscale plays a diurnal day of heavy, cache-cold jobs (quiet, a
// peak, quiet again) at an elastic 1..6-worker pool, sampling the pool
// width until the load ends and then until it settles at the floor.
func driveAutoscale(ctx context.Context, h *harness, o *observed) error {
	var health struct{ Autoscale bool }
	if err := h.get("/healthz", &health); err != nil {
		return err
	}
	o.autoscale = health.Autoscale
	// A failed scrape reads as width 0, which neither raises the peak nor
	// counts as the floor.
	width := func() uint64 {
		m, _ := load.Scrape(nil, h.base)
		return m["exaresil_serve_autoscale_workers"]
	}
	start := width()
	loaded := make(chan error, 1)
	go func() {
		loaded <- runRun(ctx, []string{"-addr", h.base, "-profile", "diurnal:base=2,peak=30,period=20,dur=20",
			"-trials", "60", "-vocab", "4096", "-zipf-s", "0", "-seed", "11"}, h.out)
	}()
	peak, end := start, start
	// ctx bounds the load, so this poll ends when the load does.
	err := poll(scenarioBudget, func() (bool, error) {
		peak = max(peak, width())
		select {
		case err := <-loaded:
			return true, err
		default:
			return false, nil
		}
	})
	if err == nil {
		err = poll(coolOffWait, func() (bool, error) {
			end = width()
			return end == 1, nil
		})
	}
	o.workers = [3]uint64{start, peak, end}
	fmt.Fprintf(h.out, "autoscale: %d workers at start, %d at peak, %d after the cool-off\n", start, peak, end)
	return err
}

func checkAutoscale(o *observed) error {
	start, peak, end := o.workers[0], o.workers[1], o.workers[2]
	failed := o.metrics[`exaresil_serve_jobs_total{state="failed"}`]
	switch {
	case !o.autoscale:
		return errors.New("/healthz does not advertise the autoscaler")
	case start != 1:
		return fmt.Errorf("the pool starts at %d workers, want the floor (1)", start)
	case peak <= 1:
		return errors.New("the pool never grew past the floor under peak load")
	case o.metrics[`exaresil_serve_autoscale_decisions_total{direction="up"}`] == 0:
		return errors.New("no scale-up decisions recorded")
	case o.metrics[`exaresil_serve_autoscale_decisions_total{direction="down"}`] == 0:
		return errors.New("no scale-down decisions recorded")
	case end != 1:
		return fmt.Errorf("the pool is stuck at %d workers after the load ended", end)
	case failed > 0:
		return fmt.Errorf("%d jobs failed: shrinking must never kill work", failed)
	case o.metrics[`exaresil_serve_jobs_total{state="done"}`] == 0:
		return errors.New("no jobs completed at all")
	}
	return nil
}

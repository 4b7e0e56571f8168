// Command exaload is the serving layer's workload tool: a temporal
// request generator, a trace recorder/replayer, and a saturation
// analyzer for exaserve and its mesh mode.
//
// Modes:
//
//	exaload gen    -profile "burst:base=2,peak=20,period=10,duty=0.2,dur=60" -out trace.jsonl
//	exaload run    -addr http://127.0.0.1:8080 -profile "constant:rate=5,dur=30" [-record out.jsonl]
//	exaload replay -addr http://127.0.0.1:8080 -trace trace.jsonl [-speed 2] [-record out.jsonl]
//	exaload sweep  -inproc [-csv report.csv]
//	exaload sweep  -addr http://127.0.0.1:8080 -rates 1,2,4,8 -step-dur 10 [-csv report.csv]
//	exaload scenario [-exaserve ./exaserve] serve|chaos|mesh|load|autoscale|all
//
// gen writes a seed-deterministic arrival stream as a JSONL trace without
// touching any server. run generates and serves a stream open-loop
// against a live endpoint, reporting latency percentiles from client-side
// histograms. replay re-issues a recorded (or generated) trace verbatim
// or time-scaled. sweep steps the arrival rate across a grid, measures
// latency/throughput/429s/cache hit rate per step, detects the knee, and
// emits a capacity-planning report (CSV plus text summary); with -inproc
// the sweep runs against a deterministic in-process exaserve and is
// byte-identical under a seed — the configuration exacheck's golden mode
// pins. scenario runs the live end-to-end suite against an exaserve
// binary (scenario.go). Exit status 2 marks usage errors, 1 operational
// failures.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"exaresil/internal/load"
	"exaresil/internal/obs"
	"exaresil/internal/serveclient"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	mode, ok := map[string]func(context.Context, []string, io.Writer) error{
		"gen":      runGen,
		"run":      runRun,
		"replay":   runReplay,
		"sweep":    runSweep,
		"scenario": runScenario,
	}[os.Args[1]]
	if !ok {
		switch os.Args[1] {
		case "-h", "-help", "--help", "help":
			usage()
			return
		}
		fmt.Fprintf(os.Stderr, "exaload: unknown mode %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err := mode(ctx, os.Args[2:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "exaload:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks bad invocations (exit 2, matching exasim).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return usageError{fmt.Sprintf(format, args...)}
}

func usage() {
	fmt.Fprint(os.Stderr, `exaload — workload generator, trace replayer, and saturation analyzer

modes:
  gen       generate a seed-deterministic arrival trace (no server needed)
  run       drive a live exaserve/mesh from a rate profile, open-loop
  replay    re-issue a recorded trace against a live server
  sweep     find the knee: sweep arrival rate, report latency/429s/cache
  scenario  boot exaserve and run a live end-to-end scenario
            (serve, chaos, mesh, load, autoscale, or all)

run 'exaload <mode> -h' for each mode's flags.
`)
}

// genFlags are the flags gen/run share for shaping a stream.
type genFlags struct {
	profile *string
	process *string
	seed    *uint64
	zipfS   *float64
	vocab   *int
	trials  *int
}

func addGenFlags(fs *flag.FlagSet) genFlags {
	return genFlags{
		profile: fs.String("profile", "constant:rate=5,dur=30",
			"rate profile DSL: kind:key=val,... segments joined by ';' (kinds: constant, ramp, diurnal, burst)"),
		process: fs.String("process", load.ProcessPoisson, "arrival process: poisson or uniform"),
		seed:    fs.Uint64("seed", 1, "generator seed (equal seeds give byte-identical streams)"),
		zipfS:   fs.Float64("zipf-s", 1.1, "spec popularity exponent (0 = uniform popularity)"),
		vocab:   fs.Int("vocab", 64, "ranked spec vocabulary size"),
		trials:  fs.Int("trials", 2, "Monte-Carlo trials per vocabulary spec (higher = heavier jobs)"),
	}
}

func (g genFlags) genSpec() (load.GenSpec, error) {
	p, err := load.ParseProfile(*g.profile)
	if err != nil {
		return load.GenSpec{}, usagef("-profile: %v", err)
	}
	if *g.vocab < 1 {
		return load.GenSpec{}, usagef("-vocab must be at least 1, got %d", *g.vocab)
	}
	if *g.trials < 1 {
		return load.GenSpec{}, usagef("-trials must be at least 1, got %d", *g.trials)
	}
	return load.GenSpec{
		Seed:    *g.seed,
		Profile: p,
		Process: *g.process,
		Vocab:   load.TrialsVocab(*g.vocab, *g.trials),
		ZipfS:   *g.zipfS,
	}, nil
}

// runGen generates a stream and writes it as a trace.
func runGen(_ context.Context, argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exaload gen", flag.ExitOnError)
	g := addGenFlags(fs)
	out := fs.String("out", "", "trace output path (default stdout)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}
	gs, err := g.genSpec()
	if err != nil {
		return err
	}
	arrivals, err := load.Generate(gs)
	if err != nil {
		return err
	}
	trace := load.GeneratedTrace(arrivals, gs.Seed, "profile="+*g.profile)
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := load.WriteTrace(w, trace); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exaload: generated %d arrivals over %ss (profile %q, seed %d)\n",
		len(arrivals), strconv.FormatFloat(gs.Profile.Duration(), 'g', -1, 64), *g.profile, gs.Seed)
	return nil
}

// httpFlags configure a live target.
type httpFlags struct {
	addr  *string
	speed *float64
}

func addHTTPFlags(fs *flag.FlagSet) httpFlags {
	return httpFlags{
		addr:  fs.String("addr", "http://127.0.0.1:8080", "exaserve base URL (comma-separated endpoints fail over)"),
		speed: fs.Float64("speed", 1, "time compression: 2 replays offsets twice as fast"),
	}
}

func (h httpFlags) target(reg *obs.Registry) *load.HTTPTarget {
	return &load.HTTPTarget{
		Client: serveclient.New(*h.addr, serveclient.Options{}),
		Base:   strings.TrimRight(strings.Split(*h.addr, ",")[0], "/"),
		Speed:  *h.speed,
		Latency: reg.Histogram("exaload_client_latency_seconds",
			"client-side submit-to-terminal latency", obs.LatencyBuckets),
	}
}

// serveStream plays arrivals at a live target and reports the outcome
// tallies plus client-histogram percentiles.
func serveStream(ctx context.Context, stdout io.Writer, target *load.HTTPTarget, arrivals []load.Arrival,
	seed uint64, note, record string) error {
	start := time.Now()
	samples, err := target.RunSchedule(ctx, arrivals)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	var ok, rejected, errs int
	for _, s := range samples {
		switch s.Class {
		case load.OutcomeOK:
			ok++
		case load.OutcomeRejected:
			rejected++
		default:
			errs++
		}
	}
	h := target.Latency
	fmt.Fprintf(stdout, "exaload: %d arrivals in %s: %d ok, %d rejected, %d errors\n",
		len(samples), elapsed.Round(time.Millisecond), ok, rejected, errs)
	if h.Count() > 0 {
		fmt.Fprintf(stdout, "exaload: client-side latency (histogram estimate): p50 %.3fs  p95 %.3fs  p99 %.3fs\n",
			load.HistQuantile(h, 0.50), load.HistQuantile(h, 0.95), load.HistQuantile(h, 0.99))
	}
	if c, err := target.Counters(); err == nil {
		fmt.Fprintf(stdout, "exaload: server cache counters: %d hits, %d joined, %d misses; %d rejects\n",
			c.CacheHits, c.CacheJoined, c.CacheMisses, c.Rejected)
	}
	if record != "" {
		trace, err := load.RecordedTrace(arrivals, samples, seed, note)
		if err != nil {
			return err
		}
		f, err := os.Create(record)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := load.WriteTrace(f, trace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "exaload: recorded %d events to %s\n", len(samples), record)
	}
	if errs > 0 {
		return fmt.Errorf("%d requests errored", errs)
	}
	return nil
}

// runRun generates a stream and serves it live.
func runRun(ctx context.Context, argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exaload run", flag.ExitOnError)
	g := addGenFlags(fs)
	h := addHTTPFlags(fs)
	record := fs.String("record", "", "record the served stream as a trace at this path")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}
	gs, err := g.genSpec()
	if err != nil {
		return err
	}
	arrivals, err := load.Generate(gs)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exaload: serving %d arrivals over %ss against %s\n",
		len(arrivals), strconv.FormatFloat(gs.Profile.Duration(), 'g', -1, 64), *h.addr)
	return serveStream(ctx, stdout, h.target(obs.NewRegistry()), arrivals, gs.Seed, "profile="+*g.profile, *record)
}

// runReplay re-issues a trace.
func runReplay(ctx context.Context, argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exaload replay", flag.ExitOnError)
	h := addHTTPFlags(fs)
	tracePath := fs.String("trace", "", "trace file to replay (required)")
	record := fs.String("record", "", "record the replayed stream's outcomes as a new trace")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}
	if *tracePath == "" {
		return usagef("-trace is required")
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	trace, err := load.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exaload: replaying %d events (seed %d, %q) at %gx against %s\n",
		len(trace.Events), trace.Seed, trace.Note, *h.speed, *h.addr)
	return serveStream(ctx, stdout, h.target(obs.NewRegistry()), trace.Arrivals(), trace.Seed,
		"replay of "+*tracePath, *record)
}

// runSweep is the saturation analyzer.
func runSweep(ctx context.Context, argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exaload sweep", flag.ExitOnError)
	inproc := fs.Bool("inproc", false, "sweep a deterministic in-process exaserve instead of a live endpoint")
	addr := fs.String("addr", "http://127.0.0.1:8080", "exaserve base URL (live sweeps)")
	ratesFlag := fs.String("rates", "", "comma-separated offered-rate grid in req/s (default: the pinned golden grid)")
	stepDur := fs.Float64("step-dur", 0, "seconds per step (default: the pinned golden value)")
	seed := fs.Uint64("seed", 0, "sweep seed (default: the pinned golden seed)")
	process := fs.String("process", "", "arrival process: poisson or uniform (default: the pinned golden process)")
	zipfS := fs.Float64("zipf-s", -1, "popularity exponent (default: the pinned golden value)")
	vocab := fs.Int("vocab", 0, "vocabulary size (default: the pinned golden value)")
	maxP99 := fs.Float64("max-p99", -1, "p99 knee budget in seconds (0 disables; default: pinned)")
	maxReject := fs.Float64("max-reject", -1, "reject-rate knee budget as a fraction (0 disables; default: pinned)")
	csvPath := fs.String("csv", "", "write the report CSV here")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}

	cfg := load.GoldenSweepConfig()
	if *ratesFlag != "" {
		cfg.Rates = nil
		for _, part := range strings.Split(*ratesFlag, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return usagef("-rates: %q is not a number", part)
			}
			cfg.Rates = append(cfg.Rates, v)
		}
	}
	if *stepDur > 0 {
		cfg.StepDur = *stepDur
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *process != "" {
		cfg.Process = *process
	}
	if *zipfS >= 0 {
		cfg.ZipfS = *zipfS
	}
	if *vocab > 0 {
		cfg.Vocab = load.DefaultVocab(*vocab)
	}
	if *maxP99 >= 0 {
		cfg.P99Budget = *maxP99
	}
	if *maxReject >= 0 {
		cfg.RejectBudget = *maxReject
	}

	var target load.Target
	if *inproc {
		t, err := load.NewInproc(load.GoldenInprocConfig())
		if err != nil {
			return err
		}
		defer t.Close()
		target = t
	} else {
		target = (httpFlags{addr: addr, speed: new(float64)}).target(obs.NewRegistry())
	}

	rep, err := load.Sweep(ctx, target, cfg)
	if err != nil {
		return err
	}
	t := rep.Table()
	t.Render(stdout)
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, rep.Summary())
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "exaload: report CSV written to %s\n", *csvPath)
	}
	return nil
}

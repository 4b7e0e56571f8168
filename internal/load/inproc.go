package load

import (
	"context"
	"errors"
	"fmt"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/obs"
	"exaresil/internal/serve"
)

// InprocConfig assembles a deterministic in-process target.
type InprocConfig struct {
	// QueueDepth is the serve pool's admission bound (default 4). The
	// worker plus this queue is the whole capacity model: arrivals beyond
	// it are 429s.
	QueueDepth int
	// CacheSize bounds the LRU result cache (default 8 — deliberately
	// smaller than realistic vocabularies, so Zipf tails keep missing).
	CacheSize int
	// Service maps a spec to its execution cost in virtual seconds
	// (default: 0.8s flat).
	Service func(serve.Spec) float64
}

// Inproc runs a real serve.Server — admission, its FIFO queue,
// single-flight result cache, job store, the code paths production
// traffic takes — on a serve.VirtualClock. Its runner arms a Service(spec)
// timer and returns when it fires; an arrival's latency is its job's
// FinishedAt minus the arrival instant. Between clock steps the target
// waits until the server is at rest — every flight whose timer fired has
// settled, and every worker it freed has started the next queued flight —
// so every outcome (hit, join, miss, 429) and latency is a pure function
// of the schedule, identical across runs, machines, and GOMAXPROCS.
type Inproc struct {
	srv     *serve.Server
	reg     *obs.Registry
	clock   *serve.VirtualClock
	width   int           // the server's workers
	started chan struct{} // one receive per runner that armed its timer

	flights int          // admitted flights not yet settled
	running int          // of those, the ones whose timer is armed
	fired   []string     // spec keys whose timers fired in this step
	pending []pendingJob // admitted jobs still waiting on a flight
}

// pendingJob is an admitted job whose flight has not settled.
type pendingJob struct {
	sample *Sample
	key    string
	id     string
	due    time.Time
	done   <-chan struct{}
}

// NewInproc boots the embedded server.
func NewInproc(cfg InprocConfig) (*Inproc, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 8
	}
	svc := cfg.Service
	if svc == nil {
		svc = func(serve.Spec) float64 { return 0.8 }
	}
	t := &Inproc{
		reg:     obs.NewRegistry(),
		clock:   serve.NewVirtualClock(time.Unix(0, 0).UTC()),
		started: make(chan struct{}),
	}
	srv, err := serve.New(serve.Config{
		QueueDepth: cfg.QueueDepth,
		CacheSize:  cfg.CacheSize,
		Obs:        t.reg,
		Clock:      t.clock,
		Runner: func(_ context.Context, _ experiments.Config, s serve.Spec) (*serve.Result, error) {
			served, key := make(chan struct{}), s.Key()
			t.clock.AfterFunc(seconds(svc(s)), func() {
				t.fired = append(t.fired, key) // on the goroutine stepping the clock
				close(served)
			})
			t.started <- struct{}{}
			<-served
			return stubResult(s), nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("inproc target: %w", err)
	}
	t.srv, t.width = srv, srv.Health().Workers
	return t, nil
}

// seconds converts virtual seconds to a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// stubResult builds a deterministic result for a spec; the load model
// cares about timing and admission, not simulation output.
func stubResult(s serve.Spec) *serve.Result {
	csv := "spec,key\n" + s.Canonical() + "," + s.Key() + "\n"
	return &serve.Result{CSV: []byte(csv), Text: csv, Digest: s.Key()}
}

// awaitStarts blocks until every worker with a flight to run started it.
func (t *Inproc) awaitStarts() {
	for t.running < min(t.width, t.flights) {
		<-t.started
		t.running++
	}
}

// advance steps the clock to `to` one timer instant at a time, letting
// the server come to rest after each.
func (t *Inproc) advance(to time.Time) {
	for {
		at, ok := t.clock.Next()
		if !ok || at.After(to) {
			break
		}
		t.clock.AdvanceTo(at)
		for _, key := range t.fired {
			kept := t.pending[:0]
			for _, p := range t.pending {
				if p.key != key {
					kept = append(kept, p)
					continue
				}
				<-p.done
				v, _ := t.srv.Job(p.id)
				p.sample.Latency = v.FinishedAt.Sub(p.due).Seconds()
			}
			t.pending = kept
		}
		t.flights -= len(t.fired)
		t.running -= len(t.fired)
		t.fired = t.fired[:0]
		t.awaitStarts()
	}
	t.clock.AdvanceTo(to)
}

// finish runs the clock until every admitted flight has settled.
func (t *Inproc) finish() {
	for t.flights > 0 {
		at, _ := t.clock.Next()
		t.advance(at)
	}
}

// RunSchedule serves the arrivals in virtual time and returns once every
// job it admitted has settled. Offsets are relative to the schedule's
// start, which is wherever the target's clock stands (schedules
// concatenate).
func (t *Inproc) RunSchedule(ctx context.Context, arrivals []Arrival) ([]Sample, error) {
	start := t.clock.Now()
	samples := make([]Sample, len(arrivals))
	for i, a := range arrivals {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		due := start.Add(seconds(a.At))
		t.advance(due)
		view, err := t.srv.Submit(a.Spec)
		switch {
		case errors.Is(err, serve.ErrSaturated):
			samples[i] = Sample{Class: OutcomeRejected}
			continue
		case err != nil:
			samples[i] = Sample{Class: OutcomeError}
			continue
		}
		samples[i] = Sample{Class: OutcomeOK, Cache: view.Cache}
		if view.FinishedAt != nil { // a cache hit is born done
			samples[i].Latency = view.FinishedAt.Sub(due).Seconds()
			continue
		}
		if view.Cache == serve.CacheMiss {
			t.flights++
			t.awaitStarts()
		}
		done, _ := t.srv.JobDone(view.ID)
		t.pending = append(t.pending, pendingJob{&samples[i], a.Spec.Key(), view.ID, due, done})
	}
	t.finish()
	return samples, nil
}

// Counters reads the embedded server's obs registry — the same families
// GET /metrics would expose — through serve's own metric handles.
func (t *Inproc) Counters() (Counters, error) {
	m := serve.NewMetrics(t.reg)
	return Counters{
		CacheHits:   m.CacheHits.Value(),
		CacheJoined: m.CacheJoined.Value(),
		CacheMisses: m.CacheMisses.Value(),
		Rejected:    m.QueueRejected.Value(),
	}, nil
}

// Close runs what an interrupted schedule left to its end and drains the
// embedded server.
func (t *Inproc) Close() error {
	t.finish()
	return t.srv.Drain(context.Background())
}

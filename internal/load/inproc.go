package load

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
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
	// single worker plus this queue is the whole capacity model: arrivals
	// beyond it are 429s.
	QueueDepth int
	// CacheSize bounds the LRU result cache (default 8 — deliberately
	// smaller than realistic vocabularies, so Zipf tails keep missing).
	CacheSize int
	// StoreSize bounds job retention (default 4096).
	StoreSize int
	// Service maps a spec to its execution cost in virtual seconds
	// (default: 0.8s flat).
	Service func(serve.Spec) float64
}

// Inproc embeds a real serve.Server — admission, its one FIFO queue,
// single-flight result cache, job store, the exact code paths production
// traffic takes — behind a gated stub runner and a virtual clock. Real
// time never enters the measurement: each execution costs Service(spec)
// virtual seconds, queue waits follow from the FIFO recurrence, and the
// target releases the gate only when the virtual clock says an execution
// has finished. Every admission outcome (hit, join, miss, 429) and every
// reported latency is therefore a pure function of the arrival schedule —
// byte-identical across runs, machines, and GOMAXPROCS settings.
//
// The single-worker restriction is what keeps the mirror exact: the
// target's queue model is one server, so with one worker the model and
// the pool agree at every arrival.
type Inproc struct {
	srv     *serve.Server
	reg     *obs.Registry
	svc     func(serve.Spec) float64
	permits chan struct{}

	now   float64 // virtual clock, seconds
	execs []*inExec
	live  map[string]*inExec
}

// inExec mirrors one admitted execution: the flight's lead job and the
// virtual time it completes.
type inExec struct {
	key        string
	jobID      string
	completeVT float64
}

// NewInproc boots the embedded server.
func NewInproc(cfg InprocConfig) (*Inproc, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 8
	}
	if cfg.StoreSize <= 0 {
		cfg.StoreSize = 4096
	}
	svc := cfg.Service
	if svc == nil {
		svc = func(serve.Spec) float64 { return 0.8 }
	}
	t := &Inproc{
		reg:     obs.NewRegistry(),
		svc:     svc,
		permits: make(chan struct{}, 1),
		live:    map[string]*inExec{},
	}
	srv, err := serve.New(serve.Config{
		Workers:    1,
		QueueDepth: cfg.QueueDepth,
		CacheSize:  cfg.CacheSize,
		StoreSize:  cfg.StoreSize,
		Obs:        t.reg,
		Runner: func(ctx context.Context, _ experiments.Config, s serve.Spec) (*serve.Result, error) {
			select {
			case <-t.permits:
				return stubResult(s), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("inproc target: %w", err)
	}
	t.srv = srv
	return t, nil
}

// stubResult builds a deterministic result for a spec; the load model
// cares about timing and admission, not simulation output.
func stubResult(s serve.Spec) *serve.Result {
	csv := "spec,key\n" + s.Canonical() + "," + s.Key() + "\n"
	sum := sha256.Sum256([]byte(csv))
	return &serve.Result{
		CSV:    []byte(csv),
		Text:   csv,
		Digest: hex.EncodeToString(sum[:]),
	}
}

// settleTimeout bounds how long the target waits for the embedded server
// to observe a permit release — pure bookkeeping latency, never part of
// the virtual measurement.
const settleTimeout = 30 * time.Second

// waitUntil polls cond until it holds or the timeout expires.
func waitUntil(what string, cond func() bool) error {
	deadline := time.Now().Add(settleTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("inproc target: timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// releaseHead lets the oldest admitted execution finish: hand the gated
// runner one permit, wait until its lead job settles, and — when another
// flight is queued behind it — wait until the worker has picked that one
// up, so the next admission decision sees the queue state the virtual
// model predicts.
func (t *Inproc) releaseHead() error {
	head := t.execs[0]
	t.permits <- struct{}{}
	err := waitUntil(fmt.Sprintf("job %s to settle", head.jobID), func() bool {
		v, ok := t.srv.Job(head.jobID)
		return !ok || v.State == "done" || v.State == "failed" || v.State == "canceled"
	})
	if err != nil {
		return err
	}
	if t.live[head.key] == head {
		delete(t.live, head.key)
	}
	t.execs = t.execs[1:]
	if len(t.execs) > 0 {
		next := t.execs[0]
		if err := waitUntil(fmt.Sprintf("job %s to start", next.jobID), func() bool {
			v, ok := t.srv.Job(next.jobID)
			return ok && v.State != "queued"
		}); err != nil {
			return err
		}
	}
	return nil
}

// advanceTo moves the virtual clock to vt, completing every execution the
// model says finishes by then.
func (t *Inproc) advanceTo(vt float64) error {
	for len(t.execs) > 0 && t.execs[0].completeVT <= vt {
		if err := t.releaseHead(); err != nil {
			return err
		}
	}
	if vt > t.now {
		t.now = vt
	}
	return nil
}

// issue submits one arrival at the current virtual time and classifies it.
func (t *Inproc) issue(a Arrival) (Sample, error) {
	view, err := t.srv.Submit(a.Spec)
	if err != nil {
		if errors.Is(err, serve.ErrSaturated) {
			return Sample{Class: OutcomeRejected}, nil
		}
		return Sample{Class: OutcomeError}, nil
	}
	switch view.Cache {
	case serve.CacheHit:
		return Sample{Class: OutcomeOK, Cache: view.Cache}, nil
	case serve.CacheJoined:
		ex, ok := t.live[a.Spec.Key()]
		if !ok {
			return Sample{}, fmt.Errorf("inproc target: joined flight for %s has no live execution", a.Spec.Key())
		}
		return Sample{Class: OutcomeOK, Cache: view.Cache, Latency: ex.completeVT - t.now}, nil
	case serve.CacheMiss:
		start := t.now
		if n := len(t.execs); n > 0 {
			start = t.execs[n-1].completeVT
		}
		ex := &inExec{key: a.Spec.Key(), jobID: view.ID, completeVT: start + t.svc(a.Spec)}
		t.execs = append(t.execs, ex)
		t.live[ex.key] = ex
		if len(t.execs) == 1 {
			// The worker was idle: wait for pickup so the queue the next
			// admission sees matches the model.
			if err := waitUntil(fmt.Sprintf("job %s to start", ex.jobID), func() bool {
				v, ok := t.srv.Job(ex.jobID)
				return ok && v.State != "queued"
			}); err != nil {
				return Sample{}, err
			}
		}
		return Sample{Class: OutcomeOK, Cache: view.Cache, Latency: ex.completeVT - t.now}, nil
	default:
		return Sample{}, fmt.Errorf("inproc target: unexpected cache disposition %q", view.Cache)
	}
}

// RunSchedule serves the arrivals in virtual time. Offsets are relative
// to the schedule's start, which is wherever the target's clock stands
// (schedules concatenate).
func (t *Inproc) RunSchedule(ctx context.Context, arrivals []Arrival) ([]Sample, error) {
	base := t.now
	samples := make([]Sample, len(arrivals))
	for i, a := range arrivals {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := t.advanceTo(base + a.At); err != nil {
			return nil, err
		}
		s, err := t.issue(a)
		if err != nil {
			return nil, err
		}
		samples[i] = s
	}
	return samples, nil
}

// Drain completes every outstanding execution and advances the clock past
// the last completion, isolating sweep steps from each other.
func (t *Inproc) Drain(ctx context.Context) error {
	for len(t.execs) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		last := t.execs[len(t.execs)-1].completeVT
		if err := t.advanceTo(last); err != nil {
			return err
		}
	}
	return nil
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

// Close drains the virtual queue and shuts the embedded server down.
func (t *Inproc) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), settleTimeout)
	defer cancel()
	if err := t.Drain(ctx); err != nil {
		return err
	}
	return t.srv.Drain(ctx)
}

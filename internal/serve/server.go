package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/obs"
)

// Config assembles a Server.
type Config struct {
	// Experiments is the per-job experiment configuration (machine, seed,
	// intra-job Workers). The zero value means experiments.Default() with
	// one worker per job: the pool's width, not intra-job fan-out, is the
	// service's parallelism control.
	Experiments experiments.Config
	// Workers is the worker-pool width (default 1). With Autoscale set it
	// is only the initial width, clamped into [Min, Max].
	Workers int
	// Autoscale, when non-nil, makes the pool elastic: a background
	// evaluator grows and shrinks the width between Autoscale.Min and
	// Autoscale.Max from queue-depth and admission-latency signals (see
	// autoscale.go and DESIGN.md §15). Nil keeps today's fixed pool.
	Autoscale *AutoscaleConfig
	// QueueDepth is the queued-flight bound at the initial width (default
	// 2x workers); the queue keeps max(QueueDepth/Workers, 1) slots per
	// worker as the width moves. A full queue rejects with 429.
	QueueDepth int
	// CacheSize bounds the LRU result cache (default 128 results).
	CacheSize int
	// StoreSize bounds job retention (default 1024; only terminal jobs
	// are evicted).
	StoreSize int
	// JobTimeout bounds one execution (0 = no timeout). A timed-out
	// flight's runner stops within one cell, and the flight fails its
	// jobs; the cells it finished stay in the snapshot for a resubmission.
	JobTimeout time.Duration
	// SnapshotSize bounds the checkpoint store (default 64 partial-result
	// snapshots of interrupted executions; see snapshot.go).
	SnapshotSize int
	// JobIDPrefix is prepended to every job id this server mints. The
	// mesh coordinator gives each replica a distinct prefix (e.g.
	// "r1.0-") so a job id names the replica — and the generation — that
	// owns it, and ids never collide across replicas or revivals.
	JobIDPrefix string
	// Obs receives the service metric families; GET /metrics exposes the
	// whole registry. Nil disables both.
	Obs *obs.Registry
	// Runner executes one spec on the worker's goroutine (nil = the
	// experiments registry). Tests substitute controllable runners; the
	// context is canceled on per-job timeout, on Kill, on an injected
	// crash, or when every subscribed job is canceled, and cfg.Progress
	// carries the execution's checkpoint hook with that context. A runner
	// must return soon after its context ends — the registry's exhibits
	// return within one cell — since the worker takes no other flight
	// until it does.
	Runner func(ctx context.Context, cfg experiments.Config, s Spec) (*Result, error)
	// Clock is the time source of every stamp, timing, timeout and tick
	// (nil = the wall clock). On a VirtualClock the server runs in stepped
	// virtual time, as load.Inproc and the serve and mesh tests run it.
	Clock Clock
	// CrashHook, when non-nil, is consulted once per execution start;
	// when it fires, the execution's context is canceled with a crash
	// cause after that many further cells complete — a deterministic
	// mid-job worker crash (internal/chaos wires this behind the exaserve
	// -chaos flag). Crashed jobs fail; resubmitting the same spec resumes
	// from the snapshot the crashed run left behind.
	CrashHook func() (afterCells int, ok bool)
}

// Server is the simulation service: job store + result cache + worker
// pool + checkpoint store, with an HTTP codec on top. Create with New,
// mount Handler, stop with Drain. The exported core API (Submit, Job,
// CancelJob, JobResult, Health, …) is the same machinery without the
// HTTP framing; the mesh coordinator embeds replicas through it.
type Server struct {
	cfg      Config
	m        *Metrics
	store    *Store
	cache    *Cache
	pool     *Pool
	snaps    *snapStore
	mux      *http.ServeMux
	scaler   *autoscaler // nil unless cfg.Autoscale is set
	draining atomic.Bool
	inflight atomic.Int64 // flights currently executing on a worker
	execSecs ewma         // execution seconds, for Retry-After
	// waitSecs is the admission-to-execution wait, the autoscaler's latency
	// signal; empty-queue ticks fold in zeros, so a stale spike decays.
	waitSecs ewma
}

// New validates the configuration, starts the worker pool, and returns a
// ready server.
func New(cfg Config) (*Server, error) {
	if cfg.Experiments.Machine.Name == "" {
		def := experiments.Default()
		if cfg.Experiments.Seed != 0 {
			def.Seed = cfg.Experiments.Seed
		}
		def.Workers = cfg.Experiments.Workers
		def.Obs = cfg.Experiments.Obs
		cfg.Experiments = def
	}
	if cfg.Experiments.Workers <= 0 {
		cfg.Experiments.Workers = 1
	}
	if err := cfg.Experiments.Validate(); err != nil {
		return nil, fmt.Errorf("serve: experiments config: %w", err)
	}
	if cfg.Clock == nil {
		cfg.Clock = WallClock{}
	}
	if cfg.Runner == nil {
		cfg.Runner = func(_ context.Context, ecfg experiments.Config, s Spec) (*Result, error) {
			return RunSpec(ecfg, s)
		}
	}
	if cfg.Autoscale != nil {
		ac := cfg.Autoscale.WithDefaults()
		if err := ac.Validate(); err != nil {
			return nil, err
		}
		cfg.Autoscale = &ac
		cfg.Workers = ac.clampWidth(cfg.Workers)
		if cfg.QueueDepth <= 0 {
			// Size the per-worker depth for the widest pool the autoscaler
			// may reach, so elasticity adds queue room, not just workers.
			cfg.QueueDepth = 2 * ac.Max
		}
	}
	s := &Server{cfg: cfg, m: NewMetrics(cfg.Obs)}
	s.store = newStore(cfg.StoreSize, cfg.JobIDPrefix, s.m)
	s.cache = newCache(cfg.CacheSize, s.m)
	s.snaps = newSnapStore(cfg.SnapshotSize, s.m)
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.execFlight, s.m)
	s.pool.start()
	if cfg.Autoscale != nil {
		s.m.AutoscaleWorkers.Set(int64(s.pool.workers()))
		s.scaler = newAutoscaler(s, *cfg.Autoscale)
	}
	s.routes()
	return s, nil
}

// Handler is the service's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admission (submissions return ErrDraining / 503) and waits
// until every queued and running flight has settled, or until ctx
// expires.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.pool.drain(ctx)
}

// Core API errors beyond the pool's ErrSaturated/ErrDraining.
var (
	// ErrNoSuchJob: the job id is unknown (never existed, or evicted).
	ErrNoSuchJob = errors.New("serve: no such job")
	// errKilled is the terminal error stamped on jobs stranded by Kill.
	errKilled = errors.New("serve: replica killed")
)

// StateConflictError reports an operation that is invalid in the job's
// current state (canceling a finished job, fetching an unfinished
// result).
type StateConflictError struct {
	State State
}

func (e *StateConflictError) Error() string {
	return fmt.Sprintf("serve: job is %s", e.State)
}

// Submit admits one spec and returns the resulting job's view: a cache
// hit is born done, an identical in-flight spec is joined, and otherwise
// a fresh flight is queued. Errors: ErrDraining (a draining server admits
// nothing, not even a cache hit or a join, so the mesh routes the spec to
// a live replica), ErrSaturated (pair with RetryAfterSeconds), or a spec
// validation error from the admission path.
func (s *Server) Submit(spec Spec) (JobView, error) {
	if s.draining.Load() {
		return JobView{}, ErrDraining
	}
	// The retry loop covers one narrow race: acquire can join a flight
	// whose last subscriber cancels before attach. Such a corpse will
	// never settle, so the stillborn job is discarded and the submission
	// retried — the dead entry is evicted (here and in acquire), so the
	// next pass leads a fresh flight. The bound is defensive; one retry
	// suffices unless cancels keep winning the race.
	for attempt := 0; ; attempt++ {
		now := s.cfg.Clock.Now()
		res, fl, created, err := s.cache.acquire(spec, now, s.pool.submit)
		if err != nil {
			return JobView{}, err
		}

		if res != nil { // cache hit: the job is born done
			j := s.store.newJob(spec, CacheHit, nil, now)
			j.finish(StateDone, res, "", now)
			s.m.Submitted.Inc()
			s.m.JobsDone.Inc()
			return j.View(), nil
		}

		cacheStatus := CacheJoined
		if created {
			cacheStatus = CacheMiss
		}
		j := s.store.newJob(spec, cacheStatus, fl, now)
		switch fl.attach(j, now) {
		case attachJoined:
			s.m.Submitted.Inc()
			return j.View(), nil
		case attachSettled:
			// The flight finished between acquire and attach, which
			// settled the job from its outcome.
			if j.State() == StateDone {
				s.m.JobsDone.Inc()
			} else {
				s.m.JobsFailed.Inc()
			}
			s.m.Submitted.Inc()
			return j.View(), nil
		case attachDead:
			s.store.remove(j.ID())
			s.cache.forget(fl)
			if attempt >= 8 {
				return JobView{}, fmt.Errorf("serve: submission kept racing cancellation for %s", spec.Key())
			}
		}
	}
}

// Job returns the job's current view.
func (s *Server) Job(id string) (JobView, bool) {
	j, ok := s.store.get(id)
	if !ok {
		return JobView{}, false
	}
	return j.View(), true
}

// CancelJob terminates one job. When it was the last live subscriber of
// its flight, the flight itself is aborted (dequeued or its context
// canceled) and the cache entry removed. Errors: ErrNoSuchJob, or a
// StateConflictError when the job already ended (its view is still
// returned).
func (s *Server) CancelJob(id string) (JobView, error) {
	j, ok := s.store.get(id)
	if !ok {
		return JobView{}, ErrNoSuchJob
	}
	if !j.finish(StateCanceled, nil, "canceled by client", s.cfg.Clock.Now()) {
		return j.View(), &StateConflictError{State: j.State()}
	}
	s.m.JobsCanceled.Inc()
	if j.flight != nil {
		switch j.flight.detach() {
		case detachAborted:
			s.cache.forget(j.flight)
			// The flight never ran; pull it out of the queue so the
			// admission slot frees immediately instead of when a worker
			// reaches and skips it.
			s.pool.discard(j.flight)
		case detachStopped:
			s.cache.forget(j.flight)
		}
	}
	return j.View(), nil
}

// JobResult returns the finished job's result. Errors: ErrNoSuchJob, or
// a StateConflictError when the job is not done (its view is still
// returned for context).
func (s *Server) JobResult(id string) (*Result, JobView, error) {
	j, ok := s.store.get(id)
	if !ok {
		return nil, JobView{}, ErrNoSuchJob
	}
	res, ok := j.Result()
	if !ok {
		return nil, j.View(), &StateConflictError{State: j.State()}
	}
	return res, j.View(), nil
}

// JobDone returns a channel that is closed once the job reaches a terminal
// state, so a caller can wait for it to settle instead of polling.
func (s *Server) JobDone(id string) (<-chan struct{}, bool) {
	j, ok := s.store.get(id)
	if !ok {
		return nil, false
	}
	return j.done, true
}

// Queued reports the flights waiting in the queue.
func (s *Server) Queued() int { return s.pool.queued() }

// Inflight reports the flights currently executing on workers. Queued +
// Inflight is the load signal the mesh's least-loaded and two-choice
// routers compare.
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// Draining reports whether admission is closed (Drain or Kill).
func (s *Server) Draining() bool { return s.draining.Load() }

// ExportSnapshots deep-copies every checkpoint snapshot with recorded
// cells, keyed by spec cache key. The mesh coordinator calls it on a
// dead replica to hand interrupted progress to a survivor.
func (s *Server) ExportSnapshots() map[string]map[int][]float64 {
	return s.snaps.export()
}

// ImportSnapshot merges handed-off cells into this server's checkpoint
// store, so the next flight for the spec resumes past them. It reports
// how many cells were new here.
func (s *Server) ImportSnapshot(key string, cells map[int][]float64) int {
	n := s.snaps.merge(key, cells)
	if n > 0 {
		s.m.SnapshotCellsRecorded.Add(uint64(n))
	}
	return n
}

// Kill simulates abrupt replica death for the mesh: admission closes,
// every live flight is aborted — running ones through their execution
// context, whose runner stops within one cell and settles the flight on
// its worker; queued ones settled directly (no worker will ever reach an
// aborted flight's settle path) — and the pool closes, so each worker
// exits once its runner returns. Checkpoint snapshots survive so the
// coordinator can export them; the Server itself stays readable (the
// mesh decides what "dead" hides).
func (s *Server) Kill() {
	s.draining.Store(true)
	now := s.cfg.Clock.Now()
	for _, fl := range s.cache.liveFlights() {
		if fl.kill() {
			continue // running (settles when its runner returns) or already finished
		}
		// Queued corpse: free its slot and fail its jobs ourselves.
		s.cache.forget(fl)
		s.pool.discard(fl)
		s.snaps.settle(fl.key)
		n := fl.settle(StateFailed, nil, "replica killed", now)
		s.m.JobsFailed.Add(uint64(n))
	}
	s.pool.close()
}

// HealthView is the GET /healthz body and the per-replica health report
// the mesh coordinator aggregates.
type HealthView struct {
	Status        string `json:"status"`
	Workers       int    `json:"workers"`
	QueueCapacity int    `json:"queue_capacity"`
	Queued        int    `json:"queued"`
	Jobs          int    `json:"jobs"`
	CacheEntries  int    `json:"cache_entries"`
	Snapshots     int    `json:"snapshots"`
	// Autoscale bounds, present only when the pool is elastic; Workers is
	// then the current width between them.
	Autoscale  bool `json:"autoscale,omitempty"`
	MinWorkers int  `json:"min_workers,omitempty"`
	MaxWorkers int  `json:"max_workers,omitempty"`
}

// Health reports liveness and the coarse pressure numbers a load
// balancer or smoke test wants.
func (s *Server) Health() HealthView {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	h := HealthView{
		Status:        status,
		Workers:       s.pool.workers(),
		QueueCapacity: s.pool.queueCapacity(),
		Queued:        s.pool.queued(),
		Jobs:          s.store.size(),
		CacheEntries:  s.cache.size(),
		Snapshots:     s.snaps.size(),
	}
	if s.cfg.Autoscale != nil {
		h.Autoscale = true
		h.MinWorkers = s.cfg.Autoscale.Min
		h.MaxWorkers = s.cfg.Autoscale.Max
	}
	return h
}

// The cancel causes of an execution beyond Kill's errKilled: an injected
// worker crash (CrashHook) and the per-job timeout (JobTimeout).
var (
	errCrash   = errors.New("serve: injected worker crash")
	errTimeout = errors.New("serve: job timeout")
)

// execFlight runs one flight on a worker: it calls the runner on the
// worker's goroutine and settles the flight from what the runner
// returns. The per-job timeout, last-subscriber cancellation, Kill and an
// injected worker crash all cancel the runner's context; the runner then
// returns within one cell, and the flight settles by the context's cause
// even if a result came back, so an interrupted flight never reaches the
// cache.
//
// Checkpoint/restart: every execution opens the spec's snapshot and
// threads an experiments.Progress hook through the runner config, so
// every simulating exhibit records each finished cell and skips cells a
// previous, interrupted attempt already completed. Success drops the
// snapshot (the result cache owns the spec now); failure, timeout,
// crash, and cancel keep a non-empty one for the next attempt.
func (s *Server) execFlight(fl *flight) {
	now := s.cfg.Clock.Now()
	ctx, cancelCause := context.WithCancelCause(context.Background())
	defer cancelCause(context.Canceled)
	if !fl.begin(cancelCause, now) {
		return // every subscriber canceled while queued; already forgotten
	}
	if s.cfg.JobTimeout > 0 {
		timeout := s.cfg.Clock.AfterFunc(s.cfg.JobTimeout, func() { cancelCause(errTimeout) })
		defer timeout.Stop()
	}
	if !fl.created.IsZero() {
		s.waitSecs.note(now.Sub(fl.created).Seconds())
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	s.m.JobsInflight.Add(1)
	defer s.m.JobsInflight.Add(-1)
	s.m.Executions.Inc()

	snap, restored := s.snaps.open(fl.key)
	if restored > 0 {
		s.m.SnapshotResumes.Inc()
		s.m.SnapshotCellsRestored.Add(uint64(restored))
	}
	// crashAfter counts down fresh cells toward an injected crash; 0
	// means no crash is scheduled.
	var crashAfter atomic.Int64
	if s.cfg.CrashHook != nil {
		if n, ok := s.cfg.CrashHook(); ok && n > 0 {
			crashAfter.Store(int64(n))
			s.m.CrashesInjected.Inc()
		}
	}
	ecfg := s.cfg.Experiments
	ecfg.Progress = &experiments.Progress{
		Ctx:       ctx,
		Completed: snap.completed(),
		OnCell: func(cell int, values []float64) {
			snap.note(cell, values)
			s.m.SnapshotCellsRecorded.Inc()
			if crashAfter.Load() > 0 && crashAfter.Add(-1) == 0 {
				cancelCause(errCrash)
			}
		},
	}

	res, err := s.cfg.Runner(ctx, ecfg, fl.spec)
	end := s.cfg.Clock.Now()
	secs := end.Sub(now).Seconds()
	s.m.JobSeconds.Observe(secs)
	s.execSecs.note(secs)
	if ctx.Err() != nil {
		err = context.Cause(ctx)
	}
	if err == nil {
		s.cache.complete(fl, res)
		s.snaps.drop(fl.key)
		n := fl.settle(StateDone, res, "", end)
		s.m.JobsDone.Add(uint64(n))
		return
	}
	s.cache.forget(fl)
	s.snaps.settle(fl.key)
	state, msg, count := StateFailed, "run: "+err.Error(), s.m.JobsFailed
	switch {
	case errors.Is(err, errCrash):
		msg = "injected worker crash; resubmit to resume from the last snapshot"
	case errors.Is(err, errTimeout):
		msg = fmt.Sprintf("job timeout after %s", s.cfg.JobTimeout)
	case errors.Is(err, errKilled):
		msg = "replica killed"
	case ctx.Err() != nil:
		// Last subscriber canceled mid-run; its job is already terminal,
		// so this usually transitions nothing.
		state, msg, count = StateCanceled, "canceled", s.m.JobsCanceled
	}
	count.Add(uint64(fl.settle(state, nil, msg, end)))
}

// ewma is an exponentially weighted moving average (alpha 0.2; the first
// sample seeds it) in an atomic word that any goroutine may fold or read.
type ewma struct{ bits atomic.Uint64 }

func (e *ewma) note(sample float64) {
	const alpha = 0.2
	for {
		old := e.bits.Load()
		next := sample
		if old != 0 {
			next = (1-alpha)*math.Float64frombits(old) + alpha*sample
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// value reads the average: 0 before any sample or for a negative one.
func (e *ewma) value() float64 {
	if v := math.Float64frombits(e.bits.Load()); v > 0 {
		return v
	}
	return 0
}

// RetryAfterSeconds estimates when a rejected client should try again:
// the queued work divided by the pool width, paced by the average
// execution time, clamped to [1, 120] seconds. Before the EWMA has any
// samples (cold start — nothing has finished yet) the estimate is
// explicitly floored at 1s: a 429 storm on a freshly booted server must
// never tell every client "retry now". Under autoscaling the divisor is
// the pool's current width — a worker a shrink retired takes no more
// flights, so crediting it would underestimate the wait.
func (s *Server) RetryAfterSeconds() int {
	avg := s.execSecs.value()
	if avg == 0 {
		return 1 // cold start: no completed execution to pace by
	}
	est := int(math.Ceil(avg * float64(s.pool.queued()+1) / float64(s.pool.workers())))
	if est < 1 {
		est = 1
	}
	if est > 120 {
		est = 120
	}
	return est
}

package serve

import (
	"context"
	"encoding/json"
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
	// Workers is the worker-pool width (default 1 — one shard per worker).
	// With Autoscale set it is only the initial width, clamped into
	// [Min, Max].
	Workers int
	// Autoscale, when non-nil, makes the pool elastic: a background
	// evaluator grows and shrinks the width between Autoscale.Min and
	// Autoscale.Max from queue-depth and admission-latency signals (see
	// autoscale.go and DESIGN.md §15). Nil keeps today's fixed pool.
	Autoscale *AutoscaleConfig
	// QueueDepth is the total queued-flight bound across shards (default
	// 2x workers). A full shard rejects with 429.
	QueueDepth int
	// CacheSize bounds the LRU result cache (default 128 results).
	CacheSize int
	// StoreSize bounds job retention (default 1024; only terminal jobs
	// are evicted).
	StoreSize int
	// JobTimeout bounds one execution (0 = no timeout). A timed-out
	// flight fails its jobs and detaches the still-running simulation.
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
	// Runner executes one spec (nil = the experiments registry). Tests
	// substitute controllable runners; the context is canceled on per-job
	// timeout or when every subscribed job is canceled, and cfg.Progress
	// carries the execution's checkpoint hook.
	Runner func(ctx context.Context, cfg experiments.Config, s Spec) (*Result, error)
	// CrashHook, when non-nil, is consulted once per execution start;
	// when it fires, the execution's context is canceled with a crash
	// cause after that many further grid cells complete — a deterministic
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
	inflight atomic.Int64  // flights currently executing on a worker
	ewmaBits atomic.Uint64 // EWMA of execution seconds, for Retry-After
	waitBits atomic.Uint64 // EWMA of queue-wait seconds, for the autoscaler
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
	if cfg.Runner == nil {
		cfg.Runner = func(_ context.Context, ecfg experiments.Config, s Spec) (*Result, error) {
			return RunSpec(ecfg, s)
		}
	}
	if cfg.Autoscale != nil {
		ac := cfg.Autoscale.withDefaults()
		if err := ac.Validate(); err != nil {
			return nil, err
		}
		cfg.Autoscale = &ac
		cfg.Workers = ac.clampWidth(cfg.Workers)
		if cfg.QueueDepth <= 0 {
			// Size the per-shard depth for the widest pool the autoscaler
			// may reach, so elasticity adds queue room, not just workers.
			cfg.QueueDepth = 2 * ac.Max
		}
	}
	s := &Server{cfg: cfg, m: NewMetrics(cfg.Obs)}
	s.store = newStore(cfg.StoreSize, cfg.JobIDPrefix, s.m)
	s.cache = newCache(cfg.CacheSize, s.m)
	s.snaps = newSnapStore(cfg.SnapshotSize, s.m)
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.execFlight, s.m)
	for shard := 0; shard < s.pool.workers(); shard++ {
		s.m.QueueDepth(shard).Set(0) // register the series before traffic
	}
	s.pool.start()
	if cfg.Autoscale != nil {
		s.m.AutoscaleWorkers.Set(int64(s.pool.workers()))
		s.scaler = newAutoscaler(s, *cfg.Autoscale)
		go s.scaler.run()
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
	if s.scaler != nil {
		s.scaler.halt()
	}
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
// a fresh flight is queued. Errors: ErrDraining, ErrSaturated (pair with
// RetryAfterSeconds), or a spec validation error from the admission path.
func (s *Server) Submit(spec Spec) (JobView, error) {
	// The retry loop covers one narrow race: acquire can join a flight
	// whose last subscriber cancels before attach. Such a corpse will
	// never settle, so the stillborn job is discarded and the submission
	// retried — the dead entry is evicted (here and in acquire), so the
	// next pass leads a fresh flight. The bound is defensive; one retry
	// suffices unless cancels keep winning the race.
	for attempt := 0; ; attempt++ {
		now := time.Now()
		res, fl, created, err := s.cache.acquire(spec, s.pool.submit)
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
			// The flight finished between acquire and attach: settle from
			// its outcome directly.
			fres, ferr := fl.outcome()
			if ferr != nil {
				j.finish(StateFailed, nil, ferr.Error(), now)
				s.m.JobsFailed.Inc()
			} else {
				j.finish(StateDone, fres, "", now)
				s.m.JobsDone.Inc()
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
	if !j.finish(StateCanceled, nil, "canceled by client", time.Now()) {
		return j.View(), &StateConflictError{State: j.State()}
	}
	s.m.JobsCanceled.Inc()
	if j.flight != nil {
		switch j.flight.detach() {
		case detachAborted:
			s.cache.forget(j.flight)
			// The flight never ran; pull it out of its shard queue so the
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

// Queued reports the flights waiting in shard queues.
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
// context, queued ones settled directly (no worker will ever reach an
// aborted flight's settle path) — and the workers are reaped in the
// background. Checkpoint snapshots survive so the coordinator can export
// them; the Server itself stays readable (the mesh decides what "dead"
// hides).
func (s *Server) Kill() {
	s.draining.Store(true)
	if s.scaler != nil {
		s.scaler.halt()
	}
	now := time.Now()
	for _, fl := range s.cache.liveFlights() {
		if fl.kill() {
			continue // running (settles via ctx.Done) or already finished
		}
		// Queued corpse: free its slot and fail its jobs ourselves.
		s.cache.forget(fl)
		s.pool.discard(fl)
		s.snaps.settle(fl.key)
		n := fl.settle(StateFailed, nil, errKilled, "replica killed", now)
		s.m.JobsFailed.Add(uint64(n))
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.pool.drain(ctx)
	}()
}

// routes mounts the API.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.Handle("POST /v1/jobs", s.instrument("submit", s.handleSubmit))
	s.mux.Handle("GET /v1/jobs/{id}", s.instrument("job", s.handleJob))
	s.mux.Handle("DELETE /v1/jobs/{id}", s.instrument("cancel", s.handleCancel))
	s.mux.Handle("GET /v1/jobs/{id}/result", s.instrument("result", s.handleResult))
	s.mux.Handle("GET /v1/jobs/{id}/table", s.instrument("table", s.handleTable))
	s.mux.Handle("GET /v1/exhibits", s.instrument("exhibits", s.handleExhibits))
	s.mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealth))
}

// statusRecorder captures the response code for the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the request counter and latency
// histogram for one route label.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.m.Request(route, rec.code, time.Since(start).Seconds())
	})
}

// writeJSON renders one response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit admits one spec: cache hit, join of an identical in-flight
// spec, or a freshly queued flight — or 429/503 under pressure.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := ParseSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	view, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "queue full (%d slots); retry later", s.pool.queueCapacity())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+view.ID)
	code := http.StatusAccepted
	if view.Cache == CacheHit {
		code = http.StatusOK
	}
	writeJSON(w, code, view)
}

// handleJob is the poll endpoint.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleCancel terminates one job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.CancelJob(r.PathValue("id"))
	var conflict *StateConflictError
	switch {
	case errors.Is(err, ErrNoSuchJob):
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	case errors.As(err, &conflict):
		writeError(w, http.StatusConflict, "job is already %s", conflict.State)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleResult serves the finished job's CSV bytes — byte-identical to
// `exasim -csv` output for the same spec.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, view, err := s.JobResult(r.PathValue("id"))
	var conflict *StateConflictError
	switch {
	case errors.Is(err, ErrNoSuchJob):
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	case errors.As(err, &conflict):
		writeError(w, http.StatusConflict, "job is %s, not done", view.State)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("X-Exaresil-Digest", res.Digest)
	_, _ = w.Write(res.CSV)
}

// handleTable serves the finished job's rendered ASCII table.
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	res, view, err := s.JobResult(r.PathValue("id"))
	var conflict *StateConflictError
	switch {
	case errors.Is(err, ErrNoSuchJob):
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	case errors.As(err, &conflict):
		writeError(w, http.StatusConflict, "job is %s, not done", view.State)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprint(w, res.Text)
}

// exhibitInfo is one row of GET /v1/exhibits.
type exhibitInfo struct {
	Name  string `json:"name"`
	Group string `json:"group"`
}

// handleExhibits lists the runnable exhibit names from the shared
// registry.
func (s *Server) handleExhibits(w http.ResponseWriter, r *http.Request) {
	var out []exhibitInfo
	for _, e := range experiments.Exhibits() {
		out = append(out, exhibitInfo{Name: e.Name, Group: e.Group})
	}
	writeJSON(w, http.StatusOK, struct {
		Exhibits []exhibitInfo `json:"exhibits"`
	}{out})
}

// handleMetrics exposes the obs registry in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Obs == nil {
		writeError(w, http.StatusNotFound, "metrics are disabled (no registry configured)")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.cfg.Obs.WriteProm(w)
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

// handleHealth renders Health.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// errCrash is the cancel cause of an injected worker crash (CrashHook).
var errCrash = errors.New("serve: injected worker crash")

// execFlight runs one flight on a worker: start the runner in a child
// goroutine and wait for it, the per-job timeout, last-subscriber
// cancellation, or an injected worker crash — whichever comes first. A
// detached runner (anything but the runner's own return won the select)
// keeps simulating until it notices the canceled context, but its result
// is discarded and the worker moves on; the abandoned counter makes that
// visible.
//
// Checkpoint/restart: every execution opens the spec's snapshot and
// threads an experiments.Progress hook through the runner config, so
// grid exhibits record each finished cell and skip cells a previous,
// interrupted attempt already completed. Success drops the snapshot (the
// result cache owns the spec now); failure, timeout, crash, and cancel
// keep a non-empty one for the next attempt.
func (s *Server) execFlight(fl *flight) {
	now := time.Now()
	ctx, cancelCause := context.WithCancelCause(context.Background())
	defer cancelCause(context.Canceled)
	if s.cfg.JobTimeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancelTimeout()
	}
	if !fl.begin(cancelCause, now) {
		return // every subscriber canceled while queued; already forgotten
	}
	if !fl.created.IsZero() {
		s.noteQueueWait(now.Sub(fl.created).Seconds())
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

	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, err := s.cfg.Runner(ctx, ecfg, fl.spec)
		ch <- outcome{res, err}
	}()

	select {
	case o := <-ch:
		secs := time.Since(start).Seconds()
		s.m.JobSeconds.Observe(secs)
		s.noteJobSeconds(secs)
		if o.err != nil {
			s.cache.forget(fl)
			s.snaps.settle(fl.key)
			n := fl.settle(StateFailed, nil, o.err, "run: "+o.err.Error(), time.Now())
			s.m.JobsFailed.Add(uint64(n))
		} else {
			s.cache.complete(fl, o.res)
			s.snaps.drop(fl.key)
			n := fl.settle(StateDone, o.res, nil, "", time.Now())
			s.m.JobsDone.Add(uint64(n))
		}
	case <-ctx.Done():
		s.m.JobsAbandoned.Inc()
		s.cache.forget(fl)
		s.snaps.settle(fl.key)
		cause := context.Cause(ctx)
		switch {
		case errors.Is(cause, errCrash):
			n := fl.settle(StateFailed, nil, cause,
				"injected worker crash; resubmit to resume from the last snapshot", time.Now())
			s.m.JobsFailed.Add(uint64(n))
		case errors.Is(cause, context.DeadlineExceeded):
			n := fl.settle(StateFailed, nil, cause,
				fmt.Sprintf("job timeout after %s", s.cfg.JobTimeout), time.Now())
			s.m.JobsFailed.Add(uint64(n))
		case errors.Is(cause, errKilled):
			n := fl.settle(StateFailed, nil, cause, "replica killed", time.Now())
			s.m.JobsFailed.Add(uint64(n))
		default:
			// Last subscriber canceled mid-run; its job is already
			// terminal, so this usually transitions nothing.
			n := fl.settle(StateCanceled, nil, cause, "canceled", time.Now())
			s.m.JobsCanceled.Add(uint64(n))
		}
	}
}

// noteJobSeconds folds one execution time into the EWMA behind
// Retry-After.
func (s *Server) noteJobSeconds(secs float64) {
	noteEwma(&s.ewmaBits, secs)
}

// noteQueueWait folds one admission-to-execution wait into the EWMA the
// autoscaler reads as its latency signal. The autoscaler also folds in
// zero samples on empty-queue ticks so the signal decays when no flight
// is waiting.
func (s *Server) noteQueueWait(secs float64) {
	noteEwma(&s.waitBits, secs)
}

// queueWaitSeconds reads the queue-wait EWMA (0 before any sample).
func (s *Server) queueWaitSeconds() float64 {
	bits := s.waitBits.Load()
	if bits == 0 {
		return 0
	}
	v := math.Float64frombits(bits)
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return v
}

// noteEwma folds one sample into a float64 EWMA stored in an atomic word
// (alpha 0.2; the first sample seeds the average).
func noteEwma(bits *atomic.Uint64, sample float64) {
	const alpha = 0.2
	for {
		old := bits.Load()
		prev := math.Float64frombits(old)
		next := sample
		if old != 0 {
			next = (1-alpha)*prev + alpha*sample
		}
		if bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// RetryAfterSeconds estimates when a rejected client should try again:
// the queued work divided by the pool width, paced by the average
// execution time, clamped to [1, 120] seconds. Before the EWMA has any
// samples (cold start — nothing has finished yet) the estimate is
// explicitly floored at 1s: a 429 storm on a freshly booted server must
// never tell every client "retry now". Under autoscaling the divisor is
// the pool's *active* width — a mid-shrink pool no longer admits to the
// retiring shard, so crediting it would underestimate the wait.
func (s *Server) RetryAfterSeconds() int {
	bits := s.ewmaBits.Load()
	if bits == 0 {
		return 1 // cold start: no completed execution to pace by
	}
	avg := math.Float64frombits(bits)
	if avg <= 0 || math.IsNaN(avg) {
		avg = 1
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

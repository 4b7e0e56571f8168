package serve

import (
	"fmt"

	"exaresil/internal/obs"
)

// Metrics is the service's obs surface, following the repository's layer
// convention (exaresil_serve_*). Construction on a nil registry yields
// nil-metric no-ops throughout, so a server without observability pays
// only nil checks.
type Metrics struct {
	reg *obs.Registry

	// HTTP front end.
	// Requests counts responses by route and status code (labels are
	// resolved per call: the code is not known until the handler ends).
	// RequestSeconds is the per-route latency distribution.

	// Job lifecycle.
	Submitted    *obs.Counter // jobs accepted (all cache dispositions)
	JobsDone     *obs.Counter
	JobsFailed   *obs.Counter
	JobsCanceled *obs.Counter
	JobsInflight *obs.Gauge     // flights currently executing
	Executions   *obs.Counter   // spec runs actually started (single-flight dedups these)
	JobSeconds   *obs.Histogram // execution wall time
	StoreEvicted *obs.Counter

	// Queue and backpressure.
	QueueDepth    *obs.Gauge // flights waiting in the queue
	QueueRejected *obs.Counter

	// Autoscaler (elastic pool; see autoscale.go). The blocked counters
	// record decisions a streak earned but the guard rails suppressed,
	// one increment per evaluation tick; the signal gauges are
	// milli-scaled (obs gauges are integers).
	AutoscaleWorkers         *obs.Gauge   // current active pool width
	AutoscaleUp              *obs.Counter // grow decisions applied
	AutoscaleDown            *obs.Counter // shrink decisions applied
	AutoscaleBlockedBound    *obs.Counter // held at min/max width
	AutoscaleBlockedCooldown *obs.Counter // held by the post-scale cooldown
	AutoscaleQueueSignal     *obs.Gauge   // EWMA queued-per-worker × 1000
	AutoscaleWaitSignal      *obs.Gauge   // EWMA queue wait in milliseconds

	// Result cache.
	CacheHits      *obs.Counter
	CacheJoined    *obs.Counter
	CacheMisses    *obs.Counter
	CacheEvictions *obs.Counter
	CacheSize      *obs.Gauge

	// Checkpoint/restart (job-level snapshots; DESIGN.md §10).
	Snapshots             *obs.Gauge   // partial-result snapshots retained
	SnapshotResumes       *obs.Counter // executions that began from a non-empty snapshot
	SnapshotCellsRecorded *obs.Counter // cells checkpointed as they finished
	SnapshotCellsRestored *obs.Counter // cells restored instead of recomputed
	SnapshotsEvicted      *obs.Counter
	CrashesInjected       *obs.Counter // CrashHook firings (chaos worker crashes)
}

// NewMetrics registers the service's metric families on r (nil = disabled).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		reg:          r,
		Submitted:    r.Counter("exaresil_serve_jobs_submitted_total", "jobs accepted for execution or cache resolution"),
		JobsDone:     r.Counter("exaresil_serve_jobs_total", "terminal job outcomes", obs.L("state", "done")),
		JobsFailed:   r.Counter("exaresil_serve_jobs_total", "terminal job outcomes", obs.L("state", "failed")),
		JobsCanceled: r.Counter("exaresil_serve_jobs_total", "terminal job outcomes", obs.L("state", "canceled")),
		JobsInflight: r.Gauge("exaresil_serve_jobs_inflight", "flights currently executing on a worker"),
		Executions:   r.Counter("exaresil_serve_executions_total", "experiment runs started (identical concurrent specs share one)"),
		JobSeconds:   r.Histogram("exaresil_serve_job_seconds", "execution wall time per flight", obs.LatencyBuckets),
		StoreEvicted: r.Counter("exaresil_serve_store_evicted_total", "terminal jobs aged out of the bounded job store"),

		QueueDepth:    r.Gauge("exaresil_serve_queue_depth", "flights waiting in the queue"),
		QueueRejected: r.Counter("exaresil_serve_queue_rejections_total", "submissions rejected with 429 because the queue was full"),

		AutoscaleWorkers:         r.Gauge("exaresil_serve_autoscale_workers", "active worker-pool width chosen by the autoscaler"),
		AutoscaleUp:              r.Counter("exaresil_serve_autoscale_decisions_total", "autoscale width changes applied", obs.L("direction", "up")),
		AutoscaleDown:            r.Counter("exaresil_serve_autoscale_decisions_total", "autoscale width changes applied", obs.L("direction", "down")),
		AutoscaleBlockedBound:    r.Counter("exaresil_serve_autoscale_blocked_total", "autoscale decisions suppressed by guard rails", obs.L("reason", "bound")),
		AutoscaleBlockedCooldown: r.Counter("exaresil_serve_autoscale_blocked_total", "autoscale decisions suppressed by guard rails", obs.L("reason", "cooldown")),
		AutoscaleQueueSignal:     r.Gauge("exaresil_serve_autoscale_queue_signal_milli", "EWMA of queued flights per active worker, milli-scaled"),
		AutoscaleWaitSignal:      r.Gauge("exaresil_serve_autoscale_wait_signal_milli", "EWMA of queue wait before execution, milliseconds"),

		CacheHits:      r.Counter("exaresil_serve_cache_requests_total", "result cache outcomes at submit", obs.L("outcome", "hit")),
		CacheJoined:    r.Counter("exaresil_serve_cache_requests_total", "result cache outcomes at submit", obs.L("outcome", "joined")),
		CacheMisses:    r.Counter("exaresil_serve_cache_requests_total", "result cache outcomes at submit", obs.L("outcome", "miss")),
		CacheEvictions: r.Counter("exaresil_serve_cache_evictions_total", "finished results evicted from the LRU"),
		CacheSize:      r.Gauge("exaresil_serve_cache_size", "entries resident in the result cache (finished + in flight)"),

		Snapshots:             r.Gauge("exaresil_serve_snapshots", "partial-result snapshots retained for resume"),
		SnapshotResumes:       r.Counter("exaresil_serve_snapshot_resumes_total", "executions resumed from a prior attempt's snapshot"),
		SnapshotCellsRecorded: r.Counter("exaresil_serve_snapshot_cells_total", "cell checkpoint events", obs.L("event", "recorded")),
		SnapshotCellsRestored: r.Counter("exaresil_serve_snapshot_cells_total", "cell checkpoint events", obs.L("event", "restored")),
		SnapshotsEvicted:      r.Counter("exaresil_serve_snapshots_evicted_total", "snapshots evicted from the bounded checkpoint store"),
		CrashesInjected:       r.Counter("exaresil_serve_crashes_injected_total", "worker crashes injected by the configured CrashHook"),
	}
}

// Request counts one HTTP response and observes its latency.
func (m *Metrics) Request(route string, code int, seconds float64) {
	m.reg.Counter("exaresil_serve_http_requests_total", "HTTP responses by route and status",
		obs.L("route", route), obs.L("code", fmt.Sprintf("%d", code))).Inc()
	m.reg.Histogram("exaresil_serve_http_request_seconds", "HTTP request latency by route",
		obs.LatencyBuckets, obs.L("route", route)).Observe(seconds)
}

// nilSafe returns m, or a metrics bundle over the nil registry when m is
// nil, so internal components can call through unconditionally.
func (m *Metrics) nilSafe() *Metrics {
	if m == nil {
		return NewMetrics(nil)
	}
	return m
}

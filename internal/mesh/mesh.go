// Package mesh runs N embedded exaserve replicas behind a three-stage
// pipeline — admission (fleet-level backpressure), routing (cache
// affinity, least-loaded, or two-choice), replica (an unmodified
// serve.Server per slot) — and makes replica death survivable:
// heartbeat-driven failure detection re-routes a dead replica's jobs to
// survivors, carrying the dead replica's checkpoint snapshots so
// interrupted grid executions resume instead of restarting. The design
// invariant is byte-identity: a spec served by any replica, through any
// number of failovers, yields exactly the bytes single-process exaserve
// yields. The failure model follows TeaMPI (heartbeats decide death,
// arXiv:2005.12091) and ReStore (in-memory checkpoint handoff,
// arXiv:2203.01107).
package mesh

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"exaresil/internal/obs"
	"exaresil/internal/serve"
)

// Config assembles a Coordinator.
type Config struct {
	// Replicas is the fleet width (default 1).
	Replicas int
	// Serve is the per-replica server template. The coordinator overrides
	// JobIDPrefix (replica identity lives in job ids) and Obs (each
	// replica gets its own registry so per-replica gauges don't clobber
	// each other); everything else applies to every replica. Its Clock
	// (nil = the wall clock) is the heartbeat monitor's and admission's.
	Serve serve.Config
	// Admission is the fleet-level admission stage (nil = AlwaysAdmit).
	Admission AdmissionPolicy
	// Router orders replicas per spec key (nil = affinity ring).
	Router Router
	// HeartbeatInterval is the replica heartbeat period (default 100ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how stale a replica's last beat may be before
	// the monitor declares it dead (default 5 × HeartbeatInterval).
	HeartbeatTimeout time.Duration
	// Obs receives the coordinator's exaresil_mesh_* families; when set,
	// each replica also gets a private registry and GET /metrics merges
	// all of them with replica labels. Nil disables metrics everywhere.
	Obs *obs.Registry
}

// replica is one fleet slot. The slot is permanent; the server inside it
// is generational — Revive replaces srv and bumps gen, so job ids (which
// embed idx and gen) from a previous life can never resolve against the
// new server.
type replica struct {
	idx int
	reg *obs.Registry // per-replica metrics registry, stable across lives

	// Guarded by Coordinator.mu.
	gen int
	srv *serve.Server

	alive    atomic.Bool
	beating  atomic.Bool  // false once Kill stops the replica's heartbeat
	lastBeat atomic.Int64 // unix nanos of the last heartbeat
}

// forwardCap bounds the forwarding table: dropping an old record only
// costs a client one idempotent resubmission (the retrying client
// already handles vanished jobs), so a FIFO cap keeps the coordinator's
// memory bounded without a lifecycle protocol.
const forwardCap = 4096

// Coordinator is the mesh: admission and routing in front of the
// replica fleet, plus the membership/failover machinery.
type Coordinator struct {
	cfg Config
	m   *Metrics

	mu       sync.RWMutex // guards each replica's generational fields
	replicas []*replica

	jobMu    sync.Mutex
	forwards map[string]string // old job id → rerouted job id
	fwdOrder []string

	mux      *http.ServeMux
	draining atomic.Bool
	tickMu   sync.Mutex
	tick     serve.Timer // the monitor's pending tick, guarded by tickMu

	// Mirrors of the headline counters, readable without a registry.
	failovers    atomic.Uint64
	rerouted     atomic.Uint64
	handoffCells atomic.Uint64
}

// New builds the fleet, arms the heartbeat monitor, and returns a ready
// coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Admission == nil {
		cfg.Admission = AlwaysAdmit()
	}
	if cfg.Router == nil {
		cfg.Router = NewAffinityRouter(cfg.Replicas)
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 100 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * cfg.HeartbeatInterval
	}
	if cfg.Serve.Clock == nil {
		cfg.Serve.Clock = serve.WallClock{}
	}
	c := &Coordinator{
		cfg:      cfg,
		m:        NewMetrics(cfg.Obs),
		forwards: make(map[string]string),
	}
	now := c.cfg.Serve.Clock.Now().UnixNano()
	for i := 0; i < cfg.Replicas; i++ {
		var reg *obs.Registry
		if cfg.Obs != nil {
			reg = obs.NewRegistry()
		}
		srv, err := c.buildServer(i, 0, reg)
		if err != nil {
			return nil, fmt.Errorf("mesh: replica %d: %w", i, err)
		}
		rep := &replica{idx: i, reg: reg, gen: 0, srv: srv}
		rep.alive.Store(true)
		rep.beating.Store(true)
		rep.lastBeat.Store(now)
		c.replicas = append(c.replicas, rep)
		c.m.ReplicaUp(i).Set(1)
		c.m.Routed(i).Add(0) // register the series before traffic
	}
	c.tick = c.cfg.Serve.Clock.AfterFunc(cfg.HeartbeatInterval, c.monitor)
	c.routes()
	return c, nil
}

// buildServer instantiates one replica server from the template.
func (c *Coordinator) buildServer(idx, gen int, reg *obs.Registry) (*serve.Server, error) {
	scfg := c.cfg.Serve
	scfg.JobIDPrefix = replicaPrefix(idx, gen)
	scfg.Obs = reg
	return serve.New(scfg)
}

// Replicas reports the fleet width.
func (c *Coordinator) Replicas() int { return len(c.replicas) }

// Heartbeat reports the resolved heartbeat period and the staleness
// threshold after which the monitor declares a replica dead.
func (c *Coordinator) Heartbeat() (interval, timeout time.Duration) {
	return c.cfg.HeartbeatInterval, c.cfg.HeartbeatTimeout
}

// Alive reports whether replica idx is currently live.
func (c *Coordinator) Alive(idx int) bool {
	if idx < 0 || idx >= len(c.replicas) {
		return false
	}
	return c.replicas[idx].alive.Load()
}

// monitor is the heartbeat loop: every interval it stamps the beat of
// each replica still beating, fails over every live replica whose last
// beat is older than the timeout, and re-arms itself until Drain (which
// also stops the pending tick). The embedded replica is always
// reachable, so the beat models the network heartbeat a distributed
// deployment would send: killing the replica stops its beats, and death
// is then *detected* by staleness rather than announced.
func (c *Coordinator) monitor() {
	now := c.cfg.Serve.Clock.Now().UnixNano()
	var dead []int
	c.mu.RLock()
	for _, rep := range c.replicas {
		if rep.beating.Load() {
			rep.lastBeat.Store(now)
		}
		if rep.alive.Load() && now-rep.lastBeat.Load() > int64(c.cfg.HeartbeatTimeout) {
			dead = append(dead, rep.idx)
		}
	}
	c.mu.RUnlock()
	for _, idx := range dead {
		c.failover(idx)
	}
	c.tickMu.Lock()
	defer c.tickMu.Unlock()
	if !c.draining.Load() {
		c.tick = c.cfg.Serve.Clock.AfterFunc(c.cfg.HeartbeatInterval, c.monitor)
	}
}

// Kill simulates abrupt death of replica idx: its server's work is
// aborted and its heartbeats stop. The monitor notices the missed beats
// and runs the actual failover — exactly the detection path a real
// crash would take. Submissions racing the detection window spill to
// the next routing candidate on their own.
func (c *Coordinator) Kill(idx int) error {
	if idx < 0 || idx >= len(c.replicas) {
		return fmt.Errorf("mesh: no replica %d", idx)
	}
	c.mu.RLock()
	rep := c.replicas[idx]
	srv := rep.srv
	c.mu.RUnlock()
	rep.beating.Store(false)
	srv.Kill()
	return nil
}

// failover declares replica idx dead and re-routes everything it owned:
// its checkpoint snapshots are exported and the jobs its server still
// retains are resubmitted to survivors in id order (importing the
// matching snapshot first, so interrupted grids resume instead of
// restarting). Old job ids forward to the rerouted ones, so polling
// clients follow along transparently. An id the dead server had already
// evicted stays gone, as it was before the failover.
func (c *Coordinator) failover(idx int) {
	c.mu.Lock()
	rep := c.replicas[idx]
	if !rep.alive.CompareAndSwap(true, false) {
		c.mu.Unlock()
		return
	}
	deadSrv := rep.srv
	c.mu.Unlock()
	rep.beating.Store(false)
	c.failovers.Add(1)
	c.m.Failovers.Inc()
	c.m.ReplicaUp(idx).Set(0)

	// Abort whatever the dead replica was doing (idempotent after Kill)
	// and lift its checkpoint tier out before re-routing.
	deadSrv.Kill()
	snaps := deadSrv.ExportSnapshots()

	for _, orphan := range deadSrv.Jobs() {
		view, err := c.routeSubmit(orphan.Spec, snaps[orphan.Spec.Key()])
		if err != nil {
			// No survivor would take it; the job 404s and the client's
			// idempotent resubmission path recovers.
			continue
		}
		c.rerouted.Add(1)
		c.m.Rerouted.Inc()
		c.forward(orphan.ID, view.ID)
	}
}

// Revive brings a dead replica back with a fresh generation and a
// ReStore-style prewarm: the union of the survivors' checkpoint
// snapshots is imported before the replica takes traffic, so work
// re-routed *to* it later never restarts from scratch either.
func (c *Coordinator) Revive(idx int) error {
	if idx < 0 || idx >= len(c.replicas) {
		return fmt.Errorf("mesh: no replica %d", idx)
	}
	c.mu.Lock()
	rep := c.replicas[idx]
	if rep.alive.Load() {
		c.mu.Unlock()
		return nil
	}
	gen := rep.gen + 1
	srv, err := c.buildServer(idx, gen, rep.reg)
	if err != nil {
		c.mu.Unlock()
		return fmt.Errorf("mesh: revive replica %d: %w", idx, err)
	}
	rep.gen, rep.srv = gen, srv
	var peers []*serve.Server
	for _, other := range c.replicas {
		if other.idx != idx && other.alive.Load() {
			peers = append(peers, other.srv)
		}
	}
	c.mu.Unlock()

	for _, peer := range peers {
		for key, cells := range peer.ExportSnapshots() {
			srv.ImportSnapshot(key, cells)
		}
	}
	rep.lastBeat.Store(c.cfg.Serve.Clock.Now().UnixNano())
	rep.beating.Store(true)
	rep.alive.Store(true)
	c.m.Revivals.Inc()
	c.m.ReplicaUp(idx).Set(1)
	return nil
}

// Submit runs the full pipeline: admission, then routing with spill.
// Errors: serve.ErrDraining; a *serve.RejectedError from the admission
// stage; serve.ErrUnavailable when no replica is live; otherwise the last
// replica's refusal (serve.ErrSaturated when every live replica is full).
func (c *Coordinator) Submit(spec serve.Spec) (serve.JobView, error) {
	if c.draining.Load() {
		return serve.JobView{}, serve.ErrDraining
	}
	if ok, retry := c.cfg.Admission.Admit(c.cfg.Serve.Clock.Now()); !ok {
		c.m.Rejected.Inc()
		return serve.JobView{}, &serve.RejectedError{Policy: c.cfg.Admission.Name(), Wait: retry}
	}
	c.m.Admitted.Inc()
	return c.routeSubmit(spec, nil)
}

// routeSubmit tries the router's candidate order until a replica
// accepts. handoff, when non-nil, is a checkpoint snapshot imported into
// each attempted replica before submission (the failover path).
func (c *Coordinator) routeSubmit(spec serve.Spec, handoff map[int][]float64) (serve.JobView, error) {
	cands := c.liveCandidates()
	if len(cands) == 0 {
		c.m.Exhausted.Inc()
		return serve.JobView{}, serve.ErrUnavailable
	}
	order := c.cfg.Router.Order(spec.Key(), cands)
	lastErr := serve.ErrUnavailable
	for pos, idx := range order {
		c.mu.RLock()
		rep := c.replicas[idx]
		srv, alive := rep.srv, rep.alive.Load()
		c.mu.RUnlock()
		if !alive {
			continue // died since the candidate snapshot; spill onward
		}
		if len(handoff) > 0 {
			if n := srv.ImportSnapshot(spec.Key(), handoff); n > 0 {
				c.handoffCells.Add(uint64(n))
				c.m.HandoffCells.Add(uint64(n))
			}
		}
		view, err := srv.Submit(spec)
		if err != nil {
			lastErr = err
			continue
		}
		if pos > 0 {
			c.m.Spills.Inc()
		}
		c.m.Routed(idx).Inc()
		return view, nil
	}
	c.m.Exhausted.Inc()
	return serve.JobView{}, lastErr
}

// liveCandidates snapshots the live replicas' load signals.
func (c *Coordinator) liveCandidates() []Candidate {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Candidate, 0, len(c.replicas))
	for _, rep := range c.replicas {
		if rep.alive.Load() {
			out = append(out, Candidate{Idx: rep.idx, Queued: rep.srv.Queued(), Inflight: rep.srv.Inflight()})
		}
	}
	return out
}

// forward records an old→new job id mapping, FIFO-bounded.
func (c *Coordinator) forward(oldID, newID string) {
	c.jobMu.Lock()
	defer c.jobMu.Unlock()
	if _, ok := c.forwards[oldID]; !ok {
		c.fwdOrder = append(c.fwdOrder, oldID)
	}
	c.forwards[oldID] = newID
	for len(c.fwdOrder) > forwardCap {
		delete(c.forwards, c.fwdOrder[0])
		c.fwdOrder = c.fwdOrder[1:]
	}
}

// jobID is a mesh job id's parts: the replica index and generation the
// mesh mints as the replica's id prefix, and the sequence number the
// replica appends to it.
type jobID struct {
	idx, gen int
	seq      uint64
}

// replicaPrefix is the job id prefix of replica idx in generation gen.
func replicaPrefix(idx, gen int) string { return fmt.Sprintf("r%d.%d-", idx, gen) }

// String spells the id ("r<idx>.<gen>-j<seq>") exactly as the replica
// mints it.
func (id jobID) String() string { return serve.FormatJobID(replicaPrefix(id.idx, id.gen), id.seq) }

// parseJobID splits a mesh job id into its parts. It accepts only the
// strings jobID.String produces: plain decimals with no sign or leading
// zero, then serve's zero-padded sequence.
func parseJobID(s string) (jobID, bool) {
	rest, ok1 := strings.CutPrefix(s, "r")
	idx, rest, ok2 := strings.Cut(rest, ".")
	gen, seq, ok3 := strings.Cut(rest, "-j")
	if !ok1 || !ok2 || !ok3 {
		return jobID{}, false
	}
	i, err1 := strconv.Atoi(idx)
	g, err2 := strconv.Atoi(gen)
	n, err3 := strconv.ParseUint(seq, 10, 64)
	id := jobID{idx: i, gen: g, seq: n}
	if err1 != nil || err2 != nil || err3 != nil || i < 0 || g < 0 || id.String() != s {
		return jobID{}, false
	}
	return id, true
}

// resolve follows the forwarding chain for id and returns the final id
// plus the live server owning it. ok is false when the owner is dead, a
// different generation, or unknown — the client treats the resulting
// 404 as "resubmit".
func (c *Coordinator) resolve(id string) (string, *serve.Server, bool) {
	cur := id
	for hop := 0; hop < 16; hop++ {
		c.jobMu.Lock()
		next, ok := c.forwards[cur]
		c.jobMu.Unlock()
		if !ok {
			break
		}
		cur = next
	}
	owner, ok := parseJobID(cur)
	if !ok || owner.idx >= len(c.replicas) {
		return cur, nil, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	rep := c.replicas[owner.idx]
	if !rep.alive.Load() || rep.gen != owner.gen {
		return cur, nil, false
	}
	return cur, rep.srv, true
}

// Job returns the (possibly forwarded) job's view.
func (c *Coordinator) Job(id string) (serve.JobView, bool) {
	cur, srv, ok := c.resolve(id)
	if !ok {
		return serve.JobView{}, false
	}
	return srv.Job(cur)
}

// CancelJob cancels the (possibly forwarded) job.
func (c *Coordinator) CancelJob(id string) (serve.JobView, error) {
	cur, srv, ok := c.resolve(id)
	if !ok {
		return serve.JobView{}, serve.ErrNoSuchJob
	}
	return srv.CancelJob(cur)
}

// JobResult returns the (possibly forwarded) job's result.
func (c *Coordinator) JobResult(id string) (*serve.Result, serve.JobView, error) {
	cur, srv, ok := c.resolve(id)
	if !ok {
		return nil, serve.JobView{}, serve.ErrNoSuchJob
	}
	return srv.JobResult(cur)
}

// RetryAfterSeconds is the fleet-level backoff estimate behind 429s:
// the minimum of the live replicas' estimates (a client should retry
// when *some* replica can take the work), floored at 1s.
func (c *Coordinator) RetryAfterSeconds() int {
	best := 0
	c.mu.RLock()
	for _, rep := range c.replicas {
		if !rep.alive.Load() {
			continue
		}
		if est := rep.srv.RetryAfterSeconds(); best == 0 || est < best {
			best = est
		}
	}
	c.mu.RUnlock()
	if best < 1 {
		best = 1
	}
	return best
}

// Drain closes mesh admission, stops the heartbeat monitor,
// and drains every live replica (no in-flight job is dropped).
func (c *Coordinator) Drain(ctx context.Context) error {
	c.draining.Store(true)
	c.tickMu.Lock()
	c.tick.Stop() // a pending tick would keep the drained fleet reachable
	c.tickMu.Unlock()
	c.mu.RLock()
	reps := append([]*replica(nil), c.replicas...)
	c.mu.RUnlock()
	var firstErr error
	for _, rep := range reps {
		if !rep.alive.Load() {
			continue
		}
		c.mu.RLock()
		srv := rep.srv
		c.mu.RUnlock()
		if err := srv.Drain(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ReplicaView is one fleet slot in the mesh view.
type ReplicaView struct {
	Idx    int              `json:"idx"`
	Gen    int              `json:"gen"`
	Alive  bool             `json:"alive"`
	Health serve.HealthView `json:"health"`
}

// View is the GET /healthz and GET /v1/mesh body.
type View struct {
	Status       string        `json:"status"`
	Admission    string        `json:"admission"`
	Routing      string        `json:"routing"`
	Failovers    uint64        `json:"failovers"`
	ReroutedJobs uint64        `json:"rerouted_jobs"`
	HandoffCells uint64        `json:"handoff_cells"`
	Replicas     []ReplicaView `json:"replicas"`
}

// MeshView reports fleet membership, policies, and failover totals.
func (c *Coordinator) MeshView() View {
	status := "ok"
	if c.draining.Load() {
		status = "draining"
	}
	v := View{
		Status:       status,
		Admission:    c.cfg.Admission.Name(),
		Routing:      c.cfg.Router.Name(),
		Failovers:    c.failovers.Load(),
		ReroutedJobs: c.rerouted.Load(),
		HandoffCells: c.handoffCells.Load(),
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, rep := range c.replicas {
		rv := ReplicaView{Idx: rep.idx, Gen: rep.gen, Alive: rep.alive.Load()}
		if rv.Alive {
			rv.Health = rep.srv.Health()
		}
		v.Replicas = append(v.Replicas, rv)
	}
	return v
}

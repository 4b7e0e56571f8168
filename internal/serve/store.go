package serve

import (
	"fmt"
	"sync"
	"time"
)

// State is a job's position in the lifecycle. Transitions only move
// forward: Queued → Running → one of the terminal states, or straight from
// Queued to a terminal state (cache hits are born Done; canceling or
// draining a queued job skips Running).
type State int

// The job lifecycle states.
const (
	// StateQueued: admitted, waiting for a worker (or for another job's
	// in-flight execution of the same spec).
	StateQueued State = iota
	// StateRunning: a worker is executing the job's flight.
	StateRunning
	// StateDone: finished with a result.
	StateDone
	// StateFailed: finished with an error (including per-job timeout).
	StateFailed
	// StateCanceled: terminated by DELETE before a result was available.
	StateCanceled
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= StateDone }

// String names the state as the API renders it.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// The cache dispositions a job can be born with.
const (
	// CacheMiss: this job's flight executes the spec.
	CacheMiss = "miss"
	// CacheHit: the result was already cached; the job is born Done.
	CacheHit = "hit"
	// CacheJoined: an identical spec was already in flight; this job
	// shares that execution (single-flight).
	CacheJoined = "joined"
)

// Job is one submitted spec's lifecycle record. The fields below mu are
// guarded by it; handlers read through View snapshots.
type Job struct {
	id     string
	spec   Spec
	cache  string        // CacheMiss, CacheHit, or CacheJoined
	flight *flight       // nil for cache-hit jobs
	done   chan struct{} // closed by finish

	mu        sync.Mutex
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *Result
	errMsg    string
}

// ID is the job's immutable identifier.
func (j *Job) ID() string { return j.id }

// markRunning flips a queued job to Running; later-born jobs that join an
// already-running flight pass through here too.
func (j *Job) markRunning(at time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = at
	}
}

// finish moves the job to a terminal state and closes its done channel.
// It reports false when the job already ended (a canceled job stays canceled even if its flight later
// produces a result).
func (j *Job) finish(state State, res *Result, errMsg string, at time.Time) bool {
	if !state.Terminal() {
		panic(fmt.Sprintf("serve: finish with non-terminal state %v", state))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.finished = at
	close(j.done)
	return true
}

// Result returns the job's result when done.
func (j *Job) Result() (*Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone && j.result != nil
}

// State reports the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// JobView is the API snapshot of a job.
type JobView struct {
	ID          string     `json:"id"`
	Spec        Spec       `json:"spec"`
	State       string     `json:"state"`
	Cache       string     `json:"cache"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Error       string     `json:"error,omitempty"`
	// Digest is the result CSV's SHA-256; the bytes themselves are served
	// by GET /v1/jobs/{id}/result.
	Digest string `json:"digest,omitempty"`
	// ElapsedMS is the execution wall time (0 for cache hits: the service
	// did not re-run the spec).
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
}

// View snapshots the job for the API.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		Spec:        j.spec,
		State:       j.state.String(),
		Cache:       j.cache,
		SubmittedAt: j.submitted,
		Error:       j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if j.result != nil {
		v.Digest = j.result.Digest
		if j.cache != CacheHit {
			v.ElapsedMS = j.result.Elapsed.Milliseconds()
		}
	}
	return v
}

// Store is the in-memory job table. Retention is bounded: once the table
// exceeds its capacity, the oldest *terminal* jobs are evicted (a polling
// client can always reach every live job, but ancient finished jobs age
// out instead of growing the heap forever).
type Store struct {
	mu     sync.Mutex
	cap    int
	prefix string // job-id prefix, distinguishing mesh replicas
	seq    uint64
	jobs   map[string]*Job
	order  []string // insertion order, for eviction scans
	m      *Metrics
}

// newStore builds a store retaining about cap jobs whose ids carry prefix.
func newStore(cap int, prefix string, m *Metrics) *Store {
	if cap <= 0 {
		cap = 1024
	}
	return &Store{cap: cap, prefix: prefix, jobs: make(map[string]*Job), m: m}
}

// FormatJobID spells a job id: the server's prefix (Config.JobIDPrefix)
// followed by its sequence number as "j%08d". It is the only place the
// format is written; the mesh parses ids back against it.
func FormatJobID(prefix string, seq uint64) string {
	return fmt.Sprintf("%sj%08d", prefix, seq)
}

// newJob mints, registers, and returns a job in the given initial state.
func (st *Store) newJob(spec Spec, cache string, fl *flight, now time.Time) *Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	j := &Job{
		id:        FormatJobID(st.prefix, st.seq),
		spec:      spec,
		cache:     cache,
		flight:    fl,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: now,
	}
	st.jobs[j.id] = j
	st.order = append(st.order, j.id)
	st.evictLocked()
	return j
}

// evictLocked drops the oldest terminal jobs while over capacity,
// compacting order in place so a full store allocates nothing.
func (st *Store) evictLocked() {
	if len(st.jobs) <= st.cap {
		return
	}
	kept := st.order[:0]
	for i, id := range st.order {
		if len(st.jobs) <= st.cap {
			kept = append(kept, st.order[i:]...)
			break
		}
		j, ok := st.jobs[id]
		if !ok {
			continue
		}
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if terminal {
			delete(st.jobs, id)
			st.m.StoreEvicted.Inc()
		} else {
			kept = append(kept, id)
		}
	}
	clear(st.order[len(kept):])
	st.order = kept
}

// remove unregisters a job. The submission path uses it to discard a
// stillborn job whose flight died between cache lookup and attach; the
// eviction scan drops the dangling order entry on its next pass.
func (st *Store) remove(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.jobs, id)
}

// get finds a job by id.
func (st *Store) get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// size reports the number of retained jobs.
func (st *Store) size() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.jobs)
}

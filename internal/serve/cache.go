package serve

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// flight is one execution of a spec, shared by every job that submitted an
// identical spec while it was queued or running (single-flight). The
// flight — not the job — is what the worker pool schedules.
type flight struct {
	key     string
	spec    Spec
	created time.Time // admission instant, for the autoscaler's wait signal

	mu       sync.Mutex
	jobs     []*Job // every job attached to this execution
	live     int    // attached jobs not yet canceled
	aborted  bool   // all jobs canceled while still queued: worker skips it
	running  bool
	finished bool
	stop     context.CancelCauseFunc // cancels the execution context, set when running
	state    State                   // the outcome, once finished
	res      *Result
	errMsg   string
}

// attachResult is the outcome of subscribing a job to a flight.
type attachResult int

const (
	// attachJoined: the job now shares the flight's eventual outcome.
	attachJoined attachResult = iota
	// attachSettled: the flight already finished (the execution outran the
	// submitter), and attach finished the job with the flight's outcome.
	attachSettled
	// attachDead: every earlier subscriber canceled and the flight was
	// aborted before this job could join. A dead flight never settles, so
	// joining it would leave the job queued forever — the caller must
	// retry with a fresh flight instead.
	attachDead
)

// attach subscribes a job to the flight.
func (f *flight) attach(j *Job, now time.Time) attachResult {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.finished {
		j.finish(f.state, f.res, f.errMsg, now)
		return attachSettled
	}
	if f.aborted && !f.running {
		return attachDead
	}
	f.jobs = append(f.jobs, j)
	f.live++
	if f.running {
		j.markRunning(now)
	}
	return attachJoined
}

// dead reports whether the flight was aborted before running — a corpse
// no worker will execute and no settle will ever finalize.
func (f *flight) dead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.aborted && !f.running
}

// detach removes one canceled job from the flight's live count. It reports
// what the caller must do to the underlying execution: nothing while other
// jobs still want the result, stop the running context when this was the
// last one, or note that a queued flight is now abandoned.
type detachAction int

const (
	detachKeep    detachAction = iota // other jobs still attached
	detachAborted                     // queued flight abandoned: evict key
	detachStopped                     // running flight's context canceled: evict key
	detachLate                        // flight already finished: nothing to stop
)

func (f *flight) detach() detachAction {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.finished {
		return detachLate
	}
	if f.live > 0 {
		f.live--
	}
	if f.live > 0 {
		return detachKeep
	}
	if !f.running {
		f.aborted = true
		return detachAborted
	}
	if f.stop != nil {
		f.stop(context.Canceled)
	}
	return detachStopped
}

// begin marks the flight running and flips every attached job to Running.
// It reports false for abandoned flights, which the worker skips.
func (f *flight) begin(stop context.CancelCauseFunc, now time.Time) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.aborted {
		return false
	}
	f.running = true
	f.stop = stop
	for _, j := range f.jobs {
		j.markRunning(now)
	}
	return true
}

// kill aborts the flight in place — the replica hosting it is being torn
// down. A running flight has its execution context canceled and settles
// on its worker once the runner returns; for those, kill reports handled.
// A queued flight is marked aborted (a worker that still pops it skips
// it) and reports unhandled: the caller must settle its jobs and free
// its queue slot itself, because no worker ever will.
func (f *flight) kill() (handled bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.finished {
		return true
	}
	f.aborted = true
	if f.running {
		if f.stop != nil {
			f.stop(errKilled)
		}
		return true
	}
	return false
}

// settle records the flight's outcome and finalizes every attached job.
// It returns the jobs that actually transitioned (already-canceled jobs
// keep their state). The first settle wins: a later one — a killed
// flight racing its own worker's settle — must not overwrite
// the recorded outcome that attach-settled submitters read.
func (f *flight) settle(state State, res *Result, errMsg string, now time.Time) int {
	f.mu.Lock()
	if f.finished {
		f.mu.Unlock()
		return 0
	}
	jobs := f.jobs
	f.finished = true
	f.state, f.res, f.errMsg = state, res, errMsg
	f.mu.Unlock()
	n := 0
	for _, j := range jobs {
		if j.finish(state, res, errMsg, now) {
			n++
		}
	}
	return n
}

// Cache is the LRU result cache with integrated single-flight admission.
// A key resolves to either a finished Result (hit) or a live flight
// (join); absent keys insert a new flight under the same lock that chooses
// to admit it, so two identical concurrent submissions can never both
// become leaders.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
	m     *Metrics
}

// cacheEntry is one key's slot: a live flight while executing, a Result
// once finished. Entries whose flight failed or was canceled are removed,
// never cached — errors are retried, not memoized.
type cacheEntry struct {
	key string
	fl  *flight // non-nil while in flight
	res *Result // non-nil once cached
}

// newCache builds a cache bounded to about cap finished results.
func newCache(cap int, m *Metrics) *Cache {
	if cap <= 0 {
		cap = 128
	}
	return &Cache{cap: cap, ll: list.New(), byKey: make(map[string]*list.Element), m: m}
}

// acquire resolves a spec to a cached result, an existing flight to join,
// or a freshly created flight this caller leads, admitted at now.
// Creation and admission are atomic: admit runs under the cache lock (it
// must not block — the pool's submit rejects rather than waits) and a
// rejected flight is never inserted, so no other submitter can have
// joined it.
func (c *Cache) acquire(spec Spec, now time.Time, admit func(*flight) error) (res *Result, fl *flight, created bool, err error) {
	key := spec.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.byKey[key]; ok {
		e := elem.Value.(*cacheEntry)
		switch {
		case e.res != nil:
			c.ll.MoveToFront(elem)
			c.m.CacheHits.Inc()
			return e.res, nil, false, nil
		case e.fl.dead():
			// Every subscriber canceled while the flight was still queued
			// and its cancel path has not swept the key yet. Joining the
			// corpse would hang the new job forever; evict it and lead a
			// fresh flight instead. The stale flight's pending discard and
			// forget are keyed to the flight pointer, so they cannot touch
			// the replacement.
			c.ll.Remove(elem)
			delete(c.byKey, key)
		default:
			c.ll.MoveToFront(elem)
			c.m.CacheJoined.Inc()
			return nil, e.fl, false, nil
		}
	}
	c.m.CacheMisses.Inc()
	fl = &flight{key: key, spec: spec, created: now}
	if err := admit(fl); err != nil {
		return nil, nil, false, err
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, fl: fl})
	c.evictLocked()
	c.m.CacheSize.Set(int64(c.ll.Len()))
	return nil, fl, true, nil
}

// complete replaces the flight with its finished result, making the key a
// cache hit for future submissions.
func (c *Cache) complete(fl *flight, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.byKey[fl.key]; ok {
		if e := elem.Value.(*cacheEntry); e.fl == fl {
			e.res = res
			e.fl = nil
		}
	}
}

// forget removes the flight's key (failed, timed out, or canceled
// executions are not cached) unless a different flight owns it now.
func (c *Cache) forget(fl *flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.byKey[fl.key]; ok {
		if e := elem.Value.(*cacheEntry); e.fl == fl {
			c.ll.Remove(elem)
			delete(c.byKey, fl.key)
			c.m.CacheSize.Set(int64(c.ll.Len()))
		}
	}
}

// evictLocked drops least-recently-used *finished* entries while over
// capacity. In-flight entries are never evicted: jobs are attached to
// them.
func (c *Cache) evictLocked() {
	over := c.ll.Len() - c.cap
	if over <= 0 {
		return
	}
	for elem := c.ll.Back(); elem != nil && over > 0; {
		prev := elem.Prev()
		if e := elem.Value.(*cacheEntry); e.res != nil {
			c.ll.Remove(elem)
			delete(c.byKey, e.key)
			c.m.CacheEvictions.Inc()
			over--
		}
		elem = prev
	}
}

// liveFlights snapshots every in-flight entry. Server.Kill walks the
// result to abort the whole replica's work at once.
func (c *Cache) liveFlights() []*flight {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*flight
	for elem := c.ll.Front(); elem != nil; elem = elem.Next() {
		if e := elem.Value.(*cacheEntry); e.fl != nil {
			out = append(out, e.fl)
		}
	}
	return out
}

// size reports the number of cached entries (finished and in-flight).
func (c *Cache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

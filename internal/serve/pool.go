package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// The admission errors the pool can return.
var (
	// ErrSaturated: the queue is full. The HTTP layer maps this to 429
	// with a Retry-After estimate.
	ErrSaturated = errors.New("serve: queue saturated")
	// ErrDraining: the pool stopped accepting work for shutdown. Mapped
	// to 503.
	ErrDraining = errors.New("serve: draining")
)

// Pool is the bounded worker pool: one FIFO of flights that every worker
// pops, so a queued flight waits only for the first free worker. It
// needs no routing: the result cache's single-flight already keeps one
// spec from running twice at once. Admission never blocks: a full queue
// rejects immediately (backpressure) instead of growing without bound.
// Unlike a channel, the queue supports discard: a flight whose every
// subscriber canceled while it waited is removed on the spot, releasing
// its slot at cancel time instead of when a worker reaches and skips it.
//
// The pool is elastic: grow and shrink move the width — the number of
// workers it keeps — by one, for the autoscaler (see autoscale.go).
// Shrink never kills work: a worker above the width exits only between
// flights, and the backlog stays in the queue the remaining workers pop.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond // broadcast on shrink and drain, signaled per flight
	items   []*flight  // queued flights, oldest first
	width   int        // workers wanted; grow and shrink move it
	running int        // worker goroutines alive; above width while one retires
	closed  bool       // drain: admission refused, workers exit once the queue empties

	depth int // queue slots per worker of width
	exec  func(*flight)
	wg    sync.WaitGroup
	m     *Metrics
}

// newPool builds a pool of `workers` workers whose queue holds
// max(queueDepth/workers, 1) slots per worker of width.
func newPool(workers, queueDepth int, exec func(*flight), m *Metrics) *Pool {
	if workers <= 0 {
		workers = 1
	}
	if queueDepth <= 0 {
		queueDepth = 2 * workers
	}
	p := &Pool{width: workers, depth: max(queueDepth/workers, 1), exec: exec, m: m}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// start launches one worker per unit of width.
func (p *Pool) start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.running < p.width {
		p.spawnLocked()
	}
}

// spawnLocked starts one worker goroutine; p.mu must be held.
func (p *Pool) spawnLocked() {
	p.running++
	p.wg.Add(1)
	go p.work()
}

// work is one worker's loop: pop the oldest flight, execute it, repeat.
// It exits when the pool holds more workers than its width (a shrink,
// seen only between flights) or when the pool drains and the queue is
// empty — queued work always finishes first, so neither path drops a
// flight.
func (p *Pool) work() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		for len(p.items) == 0 && !p.closed && p.running <= p.width {
			p.cond.Wait()
		}
		if p.running > p.width || len(p.items) == 0 {
			p.running--
			p.mu.Unlock()
			return
		}
		fl := p.items[0]
		p.items = slices.Delete(p.items, 0, 1)
		p.m.QueueDepth.Add(-1)
		p.mu.Unlock()
		p.exec(fl)
		p.mu.Lock()
	}
}

// submit queues a flight. It never blocks: a full queue answers
// ErrSaturated and a draining pool ErrDraining.
func (p *Pool) submit(fl *flight) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrDraining
	}
	if len(p.items) >= p.depth*p.width {
		p.m.QueueRejected.Inc()
		return ErrSaturated
	}
	p.items = append(p.items, fl)
	p.m.QueueDepth.Add(1)
	p.cond.Signal()
	return nil
}

// discard removes a still-queued flight, releasing its slot immediately
// (the DELETE-a-queued-job path). It reports whether the flight was
// found; false means a worker already popped it, in which case the
// worker's begin() check skips the aborted flight.
func (p *Pool) discard(fl *flight) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := slices.Index(p.items, fl)
	if i < 0 {
		return false
	}
	p.items = slices.Delete(p.items, i, i+1)
	p.m.QueueDepth.Add(-1)
	return true
}

// grow widens the pool by one worker: a worker still retiring from an
// earlier shrink stays, otherwise a new one starts. It reports whether
// the pool grew (false only while draining).
func (p *Pool) grow() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.width++
	if p.running < p.width {
		p.spawnLocked()
	}
	return true
}

// shrink narrows the pool by one worker: an idle worker exits at once, a
// busy one after its flight. It reports whether the width moved (false
// at width 1 or while draining).
func (p *Pool) shrink() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.width <= 1 {
		return false
	}
	p.width--
	p.cond.Broadcast()
	return true
}

// workers reports the pool's width. Retry-After pacing and the health
// view use it, so a mid-shrink pool is not credited with a worker that
// is on its way out.
func (p *Pool) workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.width
}

// queueCapacity reports the queue slots at the current width.
func (p *Pool) queueCapacity() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.depth * p.width
}

// queued reports the flights currently waiting.
func (p *Pool) queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.items)
}

// close stops admission; each worker exits once the queue is empty.
func (p *Pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.cond.Broadcast()
}

// drain closes the pool and waits for every queued and running flight to
// finish — no in-flight job is dropped. It fails only if ctx expires
// first.
func (p *Pool) drain(ctx context.Context) error {
	p.close()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with %d flights still queued: %w", p.queued(), ctx.Err())
	}
}

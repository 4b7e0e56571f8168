package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"exaresil/internal/obs"
)

// TestPoolBackpressure: with one worker and one queue slot, the third
// concurrent flight is rejected with ErrSaturated, never blocked.
func TestPoolBackpressure(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	p := newPool(1, 1, func(fl *flight) {
		started <- struct{}{}
		<-release
	}, NewMetrics(nil))
	p.start()
	defer close(release)

	if err := p.submit(&flight{key: "a"}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	<-started // worker holds flight a; the queue slot is free again
	if err := p.submit(&flight{key: "b"}); err != nil {
		t.Fatalf("second submit (queued): %v", err)
	}
	if err := p.submit(&flight{key: "c"}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third submit: got %v, want ErrSaturated", err)
	}
	if got := p.queued(); got != 1 {
		t.Errorf("queued = %d, want 1", got)
	}
	release <- struct{}{}
	<-started // worker moved on to flight b
}

// TestPoolDrainFinishesQueuedWork: drain waits for both the running and the
// queued flight — nothing in flight is dropped — and later submissions are
// refused with ErrDraining.
func TestPoolDrainFinishesQueuedWork(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	p := newPool(1, 2, func(fl *flight) {
		started <- struct{}{}
		<-release
		mu.Lock()
		ran = append(ran, fl.key)
		mu.Unlock()
	}, NewMetrics(nil))
	p.start()

	if err := p.submit(&flight{key: "a"}); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := p.submit(&flight{key: "b"}); err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- p.drain(context.Background()) }()
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 2 {
		t.Fatalf("drain dropped flights: ran %v, want [a b]", ran)
	}
	if err := p.submit(&flight{key: "c"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: got %v, want ErrDraining", err)
	}
}

// TestPoolDrainTimeout: a drain whose context expires reports the error
// instead of hanging.
func TestPoolDrainTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	p := newPool(1, 1, func(fl *flight) {
		started <- struct{}{}
		<-release
	}, NewMetrics(nil))
	p.start()
	if err := p.submit(&flight{key: "a"}); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0)) // already expired
	defer cancel()
	if err := p.drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: got %v, want DeadlineExceeded", err)
	}
}

// TestPoolAdmitsWholeQueue: a 4-worker, 8-slot pool runs four flights
// and queues eight more before its first ErrSaturated, whatever their
// keys — no submission is refused while a slot is free.
func TestPoolAdmitsWholeQueue(t *testing.T) {
	started := make(chan string, 12) // one per flight the pool can hold
	release := make(chan struct{})
	p := newPool(4, 8, func(fl *flight) {
		started <- fl.key
		<-release
	}, NewMetrics(nil))
	p.start()
	defer close(release)

	admitted := 0
	for n := uint64(1); n <= 32; n++ {
		err := p.submit(&flight{key: Spec{Exhibit: "fig1", Seed: n}.Key()})
		if errors.Is(err, ErrSaturated) {
			break
		}
		if err != nil {
			t.Fatalf("submit seed %d: %v", n, err)
		}
		admitted++
		if admitted <= 4 {
			<-started // a worker was free: the flight starts
		}
	}
	if admitted != 12 {
		t.Fatalf("admitted %d flights before the first ErrSaturated, want 12 (4 running + 8 queued)", admitted)
	}
	if got := p.queued(); got != 8 {
		t.Fatalf("queued = %d, want 8", got)
	}
}

// TestPoolGrowStartsQueuedFlights: growing a busy 1-worker pool to 4
// starts all three flights already queued behind the busy worker.
func TestPoolGrowStartsQueuedFlights(t *testing.T) {
	started := make(chan string, 4) // one per flight submitted
	release := make(chan struct{})
	p := newPool(1, 8, func(fl *flight) {
		started <- fl.key
		<-release
	}, NewMetrics(nil))
	p.start()
	defer close(release)

	for _, k := range []string{"a", "b", "c", "d"} {
		if err := p.submit(&flight{key: k}); err != nil {
			t.Fatalf("submit %s: %v", k, err)
		}
	}
	<-started // the only worker holds a; b, c, d wait
	for i := 0; i < 3; i++ {
		if !p.grow() {
			t.Fatal("grow refused")
		}
	}
	for i := 0; i < 3; i++ {
		<-started
	}
	if got := p.queued(); got != 0 {
		t.Fatalf("queued = %d after growing, want 0", got)
	}
}

// TestPoolElasticStress: submits, discards, grows and shrinks race each
// other, then a drain. Every admitted flight runs or is discarded exactly
// once, the queue gauge ends at 0, and no worker is left. Run under -race
// this is the pool's concurrency audit.
func TestPoolElasticStress(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	var mu sync.Mutex
	ran := map[*flight]int{}
	p := newPool(2, 8, func(fl *flight) {
		mu.Lock()
		ran[fl]++
		mu.Unlock()
	}, m)
	p.start()

	const submitters, perG = 4, 300
	admitted := make([][]*flight, submitters)
	discarded := make([]map[*flight]bool, submitters)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		discarded[g] = map[*flight]bool{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				fl := &flight{key: fmt.Sprintf("g%d-%d", g, i)}
				if p.submit(fl) != nil {
					continue // ErrSaturated is expected under the storm
				}
				admitted[g] = append(admitted[g], fl)
				if rnd.Intn(3) == 0 && p.discard(fl) {
					discarded[g][fl] = true
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := rand.New(rand.NewSource(99))
		for i := 0; i < 400; i++ {
			if rnd.Intn(2) == 0 && p.workers() < 8 {
				p.grow()
			} else {
				p.shrink()
			}
		}
	}()
	wg.Wait()

	if err := p.drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	total := 0
	for g := range admitted {
		for _, fl := range admitted[g] {
			total++
			want := 1
			if discarded[g][fl] {
				want = 0
			}
			if got := ran[fl]; got != want {
				t.Fatalf("flight %s ran %d times, want %d (discarded %v)", fl.key, got, want, discarded[g][fl])
			}
		}
	}
	if total == 0 {
		t.Fatal("the storm admitted no flight")
	}
	if got := m.QueueDepth.Value(); got != 0 {
		t.Fatalf("queue gauge = %d after drain, want 0", got)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running != 0 || len(p.items) != 0 {
		t.Fatalf("after drain: %d workers alive, %d flights queued; want none", p.running, len(p.items))
	}
}

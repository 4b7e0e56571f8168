package serve

import (
	"errors"
	"testing"
	"time"
)

func admitAll(*flight) error { return nil }

// queuedJob is a bare queued job, as the store mints one.
func queuedJob() *Job { return &Job{state: StateQueued, done: make(chan struct{})} }

// TestCacheSingleFlightAdmission: the first acquire of a key creates and
// leads a flight; subsequent acquires join it; completion turns the key
// into a hit.
func TestCacheSingleFlightAdmission(t *testing.T) {
	m := NewMetrics(nil)
	c := newCache(8, m)
	spec := Spec{Exhibit: "fig1", Trials: 2}

	res, fl, created, err := c.acquire(spec, time.Time{}, admitAll)
	if err != nil || res != nil || fl == nil || !created {
		t.Fatalf("first acquire: res=%v fl=%v created=%v err=%v, want fresh flight", res, fl, created, err)
	}
	res2, fl2, created2, err := c.acquire(spec, time.Time{}, admitAll)
	if err != nil || res2 != nil || created2 {
		t.Fatalf("second acquire: res=%v created=%v err=%v, want join", res2, created2, err)
	}
	if fl2 != fl {
		t.Fatal("second acquire joined a different flight")
	}

	want := &Result{Digest: "d"}
	c.complete(fl, want)
	res3, fl3, created3, err := c.acquire(spec, time.Time{}, admitAll)
	if err != nil || created3 || fl3 != nil {
		t.Fatalf("post-complete acquire: fl=%v created=%v err=%v, want hit", fl3, created3, err)
	}
	if res3 != want {
		t.Fatalf("post-complete acquire returned %v, want the completed result", res3)
	}
}

// TestCacheRejectedFlightNotInserted: when admission fails (queue full),
// the flight must not be joinable — the next acquire of the same key
// creates a fresh one.
func TestCacheRejectedFlightNotInserted(t *testing.T) {
	c := newCache(8, NewMetrics(nil))
	spec := Spec{Exhibit: "fig1"}
	reject := func(*flight) error { return ErrSaturated }
	if _, _, _, err := c.acquire(spec, time.Time{}, reject); !errors.Is(err, ErrSaturated) {
		t.Fatalf("rejected acquire: err=%v, want ErrSaturated", err)
	}
	if c.size() != 0 {
		t.Fatalf("rejected flight was inserted: cache size %d", c.size())
	}
	_, fl, created, err := c.acquire(spec, time.Time{}, admitAll)
	if err != nil || fl == nil || !created {
		t.Fatalf("retry after rejection: fl=%v created=%v err=%v, want fresh flight", fl, created, err)
	}
}

// TestCacheForgetOnlyOwner: forget removes a failed flight's key, but not
// when a newer flight has since taken the key over.
func TestCacheForgetOnlyOwner(t *testing.T) {
	c := newCache(8, NewMetrics(nil))
	spec := Spec{Exhibit: "fig1"}
	_, fl1, _, _ := c.acquire(spec, time.Time{}, admitAll)
	c.forget(fl1)
	if c.size() != 0 {
		t.Fatalf("forget left size %d, want 0", c.size())
	}
	_, fl2, _, _ := c.acquire(spec, time.Time{}, admitAll)
	c.forget(fl1) // stale forget must not evict fl2's entry
	if c.size() != 1 {
		t.Fatalf("stale forget removed the new owner: size %d, want 1", c.size())
	}
	c.complete(fl2, &Result{})
	if res, _, _, _ := c.acquire(spec, time.Time{}, admitAll); res == nil {
		t.Fatal("completed result missing after stale forget")
	}
}

// TestCacheEvictionSkipsInflight: over capacity, only finished results are
// evicted — in-flight entries have jobs attached and must survive.
func TestCacheEvictionSkipsInflight(t *testing.T) {
	m := NewMetrics(nil)
	c := newCache(2, m)
	sFin1 := Spec{Exhibit: "fig1"}
	sFin2 := Spec{Exhibit: "fig2"}
	sLive := Spec{Exhibit: "fig3"}

	_, fl1, _, _ := c.acquire(sFin1, time.Time{}, admitAll)
	c.complete(fl1, &Result{Digest: "1"})
	_, flLive, _, _ := c.acquire(sLive, time.Time{}, admitAll)
	_, fl2, _, _ := c.acquire(sFin2, time.Time{}, admitAll)
	c.complete(fl2, &Result{Digest: "2"})

	// Capacity 2, three entries: the LRU finished entry (fig1) goes, the
	// in-flight fig3 stays even though it is older than fig2.
	if c.size() != 2 {
		t.Fatalf("cache size %d, want 2", c.size())
	}
	if res, _, _, _ := c.acquire(sFin1, time.Time{}, func(*flight) error { return ErrSaturated }); res != nil {
		t.Fatal("LRU finished entry fig1 survived eviction")
	}
	if _, fl, _, _ := c.acquire(sLive, time.Time{}, admitAll); fl != flLive {
		t.Fatal("in-flight entry was evicted")
	}
}

// TestFlightDetachSemantics: detaching the last job aborts a queued flight
// but merely keeps counting while other jobs remain.
func TestFlightDetachSemantics(t *testing.T) {
	now := time.Unix(0, 0)
	fl := &flight{key: "k"}
	j1, j2 := queuedJob(), queuedJob()
	fl.attach(j1, now)
	fl.attach(j2, now)
	if got := fl.detach(); got != detachKeep {
		t.Fatalf("first detach = %v, want detachKeep", got)
	}
	if got := fl.detach(); got != detachAborted {
		t.Fatalf("last detach = %v, want detachAborted", got)
	}
	if fl.begin(func(error) {}, now) {
		t.Fatal("begin succeeded on an aborted flight")
	}

	// A running flight's last detach cancels its context instead.
	stopped := false
	fl2 := &flight{key: "k2"}
	fl2.attach(j1, now)
	if !fl2.begin(func(error) { stopped = true }, now) {
		t.Fatal("begin failed on a live flight")
	}
	if got := fl2.detach(); got != detachStopped {
		t.Fatalf("running detach = %v, want detachStopped", got)
	}
	if !stopped {
		t.Fatal("running flight's stop function was not called")
	}

	// Detach after settle is late: nothing to stop.
	fl3 := &flight{key: "k3"}
	fl3.attach(j1, now)
	fl3.settle(StateDone, &Result{}, "", now)
	if got := fl3.detach(); got != detachLate {
		t.Fatalf("post-settle detach = %v, want detachLate", got)
	}
}

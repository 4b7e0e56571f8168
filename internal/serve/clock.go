package serve

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Clock is the serving stack's one source of time: job and flight stamps,
// request and execution timing, the per-job timeout, the autoscaler tick,
// and the mesh's heartbeat monitor and admission read or schedule time
// only through it (Config.Clock; a mesh takes its replicas'). There is no
// ticker: periodic work re-arms its own timer.
type Clock interface {
	Now() time.Time
	// AfterFunc calls f once d has elapsed on this clock.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc call; Stop cancels it and reports whether
// it was still pending.
type Timer interface{ Stop() bool }

// WallClock is the system clock, the default. Its timers run f on their
// own goroutines, as time.AfterFunc does.
type WallClock struct{}

// Now is time.Now.
func (WallClock) Now() time.Time { return time.Now() }

// AfterFunc is time.AfterFunc.
func (WallClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// VirtualClock is a stepped clock: it moves only when Advance or
// AdvanceTo moves it, and each timer then due fires synchronously on the
// caller's goroutine, in (time, registration) order — the des tie rule —
// so equal-time events replay identically. A timer that a callback arms
// within the step fires in it too.
type VirtualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*virtualTimer // pending, in (time, registration) order
}

type virtualTimer struct {
	c  *VirtualClock
	at time.Time
	f  func()
}

// NewVirtualClock returns a virtual clock standing at start.
func NewVirtualClock(start time.Time) *VirtualClock { return &VirtualClock{now: start} }

// Now reports where the clock stands.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc arms f for Now()+d, behind every timer due no later; a d of
// zero or less fires on the next step, even a step of zero.
func (c *VirtualClock) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &virtualTimer{c: c, at: c.now.Add(d), f: f}
	i := sort.Search(len(c.timers), func(i int) bool { return c.timers[i].at.After(t.at) })
	c.timers = slices.Insert(c.timers, i, t)
	return t
}

// Stop cancels the timer if it has not fired.
func (t *virtualTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	i := slices.Index(t.c.timers, t)
	if i >= 0 {
		t.c.timers = slices.Delete(t.c.timers, i, i+1)
	}
	return i >= 0
}

// Next reports when the earliest pending timer is due.
func (c *VirtualClock) Next() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.timers) == 0 {
		return time.Time{}, false
	}
	return c.timers[0].at, true
}

// Advance moves the clock forward by d (see AdvanceTo).
func (c *VirtualClock) Advance(d time.Duration) { c.AdvanceTo(c.Now().Add(d)) }

// AdvanceTo fires every timer due at or before to, one at a time, with
// the clock standing at the timer's instant and its lock released while
// the callback runs, and then stands at to. It never moves backwards.
func (c *VirtualClock) AdvanceTo(to time.Time) {
	for {
		c.mu.Lock()
		if len(c.timers) == 0 || c.timers[0].at.After(to) {
			if to.After(c.now) {
				c.now = to
			}
			c.mu.Unlock()
			return
		}
		t := c.timers[0]
		c.timers = c.timers[1:]
		if t.at.After(c.now) {
			c.now = t.at
		}
		c.mu.Unlock()
		t.f()
	}
}

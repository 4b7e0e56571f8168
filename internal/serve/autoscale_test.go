package serve

import (
	"context"
	"strings"
	"testing"
	"time"
)

// The autoscaler tests drive the state machine deterministically: the
// server runs on a virtual clock that never ticks, and the test calls
// evaluate directly at chosen instants, so every decision (and every
// suppressed one) is attributable to a specific sample.

// TestAutoscaleGrowShrinkCycle: sustained queue pressure grows the pool
// to Max through the up-hysteresis window with cooldown suppression in
// between, and a drained queue shrinks it back to Min — with every job
// finishing done (elasticity never kills work).
func TestAutoscaleGrowShrinkCycle(t *testing.T) {
	r := newBlockingRunner(false)
	srv, _ := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 8,
		Runner:     r.run,
		Autoscale: &AutoscaleConfig{
			Min: 1, Max: 3,
			UpThreshold: 0.5, DownThreshold: 0.1,
			UpWindow: 2, DownWindow: 2,
			Cooldown:   time.Minute,
			WaitBudget: time.Hour, // isolate the queue signal
		},
		Clock: virtualClock(),
	})
	defer r.unblock()

	var ids []string
	for i := 0; i < 6; i++ {
		v, err := srv.Submit(Spec{Exhibit: "fig1", Seed: uint64(i + 1)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	r.waitStart() // worker 0 is busy; the rest are queued

	t0 := srv.cfg.Clock.Now()
	at := func(d time.Duration) time.Time { return t0.Add(d) }

	srv.scaler.evaluate(at(0)) // streak 1: no move yet (hysteresis)
	if got := srv.pool.workers(); got != 1 {
		t.Fatalf("width after one pressured sample = %d, want 1 (up window is 2)", got)
	}
	srv.scaler.evaluate(at(time.Second)) // streak 2: grow
	if got := srv.pool.workers(); got != 2 {
		t.Fatalf("width after up window = %d, want 2", got)
	}
	if got := srv.m.AutoscaleUp.Value(); got != 1 {
		t.Fatalf("up decisions = %d, want 1", got)
	}

	// Pressure persists, the streak re-crosses the window, but the
	// cooldown from the first grow suppresses the second.
	srv.scaler.evaluate(at(2 * time.Second))
	srv.scaler.evaluate(at(3 * time.Second))
	if got := srv.pool.workers(); got != 2 {
		t.Fatalf("width during cooldown = %d, want 2", got)
	}
	if got := srv.m.AutoscaleBlockedCooldown.Value(); got == 0 {
		t.Fatal("cooldown suppressed no decision; want blocked{cooldown} > 0")
	}

	// Past the cooldown the pool reaches Max, where the bound holds it.
	srv.scaler.evaluate(at(2 * time.Minute))
	srv.scaler.evaluate(at(2*time.Minute + time.Second))
	if got := srv.pool.workers(); got != 3 {
		t.Fatalf("width after cooldown = %d, want 3 (Max)", got)
	}
	srv.scaler.evaluate(at(4 * time.Minute))
	srv.scaler.evaluate(at(4*time.Minute + time.Second))
	if got := srv.pool.workers(); got != 3 {
		t.Fatalf("width past Max = %d, want 3", got)
	}
	if got := srv.m.AutoscaleBlockedBound.Value(); got == 0 {
		t.Fatal("bound suppressed no decision; want blocked{bound} > 0")
	}

	// Load ends: everything finishes, the queue signal decays, and the
	// down window walks the pool back to Min.
	r.unblock()
	for _, id := range ids {
		if v := awaitJob(t, srv, id); v.State != "done" {
			t.Fatalf("job %s = %s, want done (autoscaling must not kill work)", id, v.State)
		}
	}
	for i := 0; i < 60 && srv.pool.workers() > 1; i++ {
		srv.scaler.evaluate(at(10*time.Minute + time.Duration(i)*time.Minute))
	}
	if got := srv.pool.workers(); got != 1 {
		t.Fatalf("width after idle decay = %d, want 1 (Min)", got)
	}
	if got := srv.m.AutoscaleDown.Value(); got != 2 {
		t.Fatalf("down decisions = %d, want 2 (3 -> 2 -> 1)", got)
	}
	if got := srv.m.JobsFailed.Value(); got != 0 {
		t.Fatalf("failed jobs = %d, want 0", got)
	}
	if got := srv.m.AutoscaleWorkers.Value(); got != 1 {
		t.Fatalf("autoscale_workers gauge = %d, want 1", got)
	}
}

// TestAutoscaleShrinkBlockedByInflight: shrinking a 3-worker pool with
// one job running retires the two idle workers first. The running job
// keeps its worker and finishes done, and a job submitted after the
// shrinks queues behind that worker instead of starting on a retiring
// one.
func TestAutoscaleShrinkBlockedByInflight(t *testing.T) {
	r := newBlockingRunner(false)
	srv, _ := newTestServer(t, Config{
		Workers:    3,
		QueueDepth: 12,
		Runner:     r.run,
		Autoscale: &AutoscaleConfig{
			Min: 1, Max: 3,
			UpThreshold: 2, DownThreshold: 0.5,
			UpWindow: 1, DownWindow: 1,
			Cooldown: time.Nanosecond,
		},
		Clock: virtualClock(),
	})
	defer r.unblock()

	va, err := srv.Submit(Spec{Exhibit: "fig1", Seed: 1})
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	r.waitStart()

	t0 := srv.cfg.Clock.Now()
	srv.scaler.evaluate(t0)                  // idle: shrink 3 -> 2
	srv.scaler.evaluate(t0.Add(time.Minute)) // still idle: shrink 2 -> 1
	if got := srv.pool.workers(); got != 1 {
		t.Fatalf("width after two shrinks = %d, want 1", got)
	}
	if got := srv.m.AutoscaleDown.Value(); got != 2 {
		t.Fatalf("down decisions = %d, want 2", got)
	}

	// The worker left is the busy one: the next job waits for it.
	vb, err := srv.Submit(Spec{Exhibit: "fig1", Seed: 2})
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}
	if got := srv.Queued(); got != 1 {
		t.Fatalf("queued = %d, want 1 (a retiring worker took the job)", got)
	}
	if v, _ := srv.Job(va.ID); v.State != "running" {
		t.Fatalf("job A = %s after the shrinks, want running", v.State)
	}

	r.unblock()
	for _, id := range []string{va.ID, vb.ID} {
		if got := awaitJob(t, srv, id); got.State != "done" {
			t.Fatalf("job %s = %s, want done (shrink must not kill work)", id, got.State)
		}
	}
}

// TestAutoscaleMinEqualsMax: a pinned width samples and exports the
// signals but never decides, whatever the load does.
func TestAutoscaleMinEqualsMax(t *testing.T) {
	r := newBlockingRunner(false)
	srv, _ := newTestServer(t, Config{
		Workers:    5, // clamped into [2, 2]
		QueueDepth: 8,
		Runner:     r.run,
		Autoscale:  &AutoscaleConfig{Min: 2, Max: 2, UpWindow: 1, DownWindow: 1},
		Clock:      virtualClock(),
	})
	defer r.unblock()

	if got := srv.pool.workers(); got != 2 {
		t.Fatalf("initial width = %d, want 2 (Workers clamped into [Min, Max])", got)
	}
	for i := 0; i < 6; i++ {
		if _, err := srv.Submit(Spec{Exhibit: "fig1", Seed: uint64(i + 1)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	t0 := srv.cfg.Clock.Now()
	for i := 0; i < 5; i++ {
		srv.scaler.evaluate(t0.Add(time.Duration(i) * time.Minute))
	}
	if got := srv.pool.workers(); got != 2 {
		t.Fatalf("width = %d, want pinned 2", got)
	}
	if up, down := srv.m.AutoscaleUp.Value(), srv.m.AutoscaleDown.Value(); up != 0 || down != 0 {
		t.Fatalf("decisions = up %d down %d, want none for min==max", up, down)
	}
	if got := srv.m.AutoscaleQueueSignal.Value(); got == 0 {
		t.Fatal("queue signal gauge not exported under pinned width")
	}
	if got := srv.m.AutoscaleWorkers.Value(); got != 2 {
		t.Fatalf("autoscale_workers gauge = %d, want 2", got)
	}
}

// TestAutoscaleValidate: inverted bounds and inverted thresholds are
// rejected at construction, not discovered at the first decision.
func TestAutoscaleValidate(t *testing.T) {
	if _, err := New(Config{Autoscale: &AutoscaleConfig{Min: 4, Max: 2}}); err == nil {
		t.Fatal("New accepted inverted autoscale bounds (min 4, max 2)")
	} else if !strings.Contains(err.Error(), "inverted") {
		t.Fatalf("inverted-bounds error %q does not name the problem", err)
	}
	if err := (AutoscaleConfig{UpThreshold: 0.2, DownThreshold: 0.5}).WithDefaults().Validate(); err == nil {
		t.Fatal("Validate accepted down threshold above up threshold")
	}
	if err := (AutoscaleConfig{}).WithDefaults().Validate(); err != nil {
		t.Fatalf("zero config (defaults) must validate, got %v", err)
	}
}

// TestAutoscaleWithDefaults: resolving a config twice changes nothing, so
// exaserve can resolve it once, log it, and hand it to New; Health then
// reports the resolved bounds.
func TestAutoscaleWithDefaults(t *testing.T) {
	for _, ac := range []AutoscaleConfig{
		{},
		{Min: 2},
		{Min: 3, Max: 5, Interval: 2 * time.Second, DownThreshold: 0.1},
	} {
		once := ac.WithDefaults()
		if twice := once.WithDefaults(); twice != once {
			t.Fatalf("WithDefaults not idempotent for %+v: %+v then %+v", ac, once, twice)
		}
	}
	srv, _ := newTestServer(t, Config{Autoscale: &AutoscaleConfig{Min: 2}, Clock: virtualClock()})
	h := srv.Health()
	if !h.Autoscale || h.MinWorkers != 2 || h.MaxWorkers != 8 || h.Workers != 2 {
		t.Fatalf("health = %+v, want autoscale 2-8 workers at width 2", h)
	}
}

// TestRetryAfterTracksActiveWidth: the 429 pacing estimate divides by the
// pool's current active width, so a grow mid-window shortens the advice
// and a shrink lengthens it (the PR-10 bugfix sweep's regression).
func TestRetryAfterTracksActiveWidth(t *testing.T) {
	r := newBlockingRunner(false)
	srv, _ := newTestServer(t, Config{
		Workers: 1,
		Runner:  r.run,
		Autoscale: &AutoscaleConfig{
			Min: 1, Max: 4,
		},
		Clock: virtualClock(),
	})
	defer r.unblock()

	srv.execSecs.note(10) // seed the execution EWMA: 10s per job
	if got := srv.RetryAfterSeconds(); got != 10 {
		t.Fatalf("RetryAfter at width 1 = %d, want 10", got)
	}
	srv.pool.grow()
	if got := srv.RetryAfterSeconds(); got != 5 {
		t.Fatalf("RetryAfter at width 2 = %d, want 5", got)
	}
	srv.pool.shrink()
	if got := srv.RetryAfterSeconds(); got != 10 {
		t.Fatalf("RetryAfter back at width 1 = %d, want 10", got)
	}
}

// TestCancelQueuedOnRetiringShard: DELETE of a job queued while a
// shrink retires one of two busy workers still frees its slot at once,
// and no worker ever runs it.
func TestCancelQueuedOnRetiringShard(t *testing.T) {
	r := newBlockingRunner(false)
	srv, _ := newTestServer(t, Config{
		Workers:    2,
		QueueDepth: 8,
		Runner:     r.run,
	})
	defer r.unblock()

	// A and B occupy both workers; C queues behind them.
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		v, err := srv.Submit(Spec{Exhibit: "fig1", Seed: seed})
		if err != nil {
			t.Fatalf("submit seed %d: %v", seed, err)
		}
		ids = append(ids, v.ID)
		if seed <= 2 {
			r.waitStart()
		}
	}
	if got := srv.Queued(); got != 1 {
		t.Fatalf("queued = %d, want 1", got)
	}

	if !srv.pool.shrink() {
		t.Fatal("shrink refused")
	}
	view, err := srv.CancelJob(ids[2])
	if err != nil {
		t.Fatalf("cancel queued job during a shrink: %v", err)
	}
	if view.State != "canceled" {
		t.Fatalf("canceled job state = %s, want canceled", view.State)
	}
	if got := srv.Queued(); got != 0 {
		t.Fatalf("queued after cancel = %d, want 0 (slot freed immediately)", got)
	}

	r.unblock()
	for _, id := range ids[:2] {
		if got := awaitJob(t, srv, id); got.State != "done" {
			t.Fatalf("running job %s = %s, want done", id, got.State)
		}
	}
	if got := srv.m.Executions.Value(); got != 2 {
		t.Fatalf("executions = %d, want 2 (the canceled job never runs)", got)
	}
}

// TestPoolShrinkDrainsBacklog: a shrink while both workers are busy
// retires one of them after its flight, the backlog runs to completion
// on the worker that stays, and a later grow starts a fresh worker.
func TestPoolShrinkDrainsBacklog(t *testing.T) {
	started := make(chan string, 7) // one per flight submitted
	release := make(chan struct{})
	p := newPool(2, 8, func(fl *flight) {
		started <- fl.key
		<-release
	}, NewMetrics(nil))
	p.start()
	defer p.drain(context.Background())
	defer close(release)

	// releaseOne lets one executing flight finish.
	releaseOne := func() { release <- struct{}{} }

	// Two flights executing, two queued.
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := p.submit(&flight{key: k}); err != nil {
			t.Fatalf("submit %s: %v", k, err)
		}
	}
	<-started
	<-started

	if !p.shrink() {
		t.Fatal("shrink refused")
	}
	if got := p.workers(); got != 1 {
		t.Fatalf("width = %d, want 1", got)
	}
	// The queue stays open at the new width: 4 slots, 2 taken.
	if err := p.submit(&flight{key: "e"}); err != nil {
		t.Fatalf("submit after shrink: %v", err)
	}

	// a and b finish: the first worker done retires, the other pops the
	// backlog alone, oldest first.
	releaseOne()
	releaseOne()
	for _, want := range []string{"c", "d", "e"} {
		if k := <-started; k != want {
			t.Fatalf("backlog started %s, want %s", k, want)
		}
		releaseOne()
	}

	// Grow starts a fresh worker: two flights run at once again.
	if !p.grow() {
		t.Fatal("grow refused")
	}
	for _, k := range []string{"f", "g"} {
		if err := p.submit(&flight{key: k}); err != nil {
			t.Fatalf("submit %s: %v", k, err)
		}
	}
	<-started
	<-started // both at once: neither has been released yet
	releaseOne()
	releaseOne()
}

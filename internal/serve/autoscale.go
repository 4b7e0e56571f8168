package serve

import (
	"fmt"
	"sync"
	"time"
)

// AutoscaleConfig tunes the elastic worker pool (DESIGN.md §15). The
// autoscaler moves the pool's width between Min and Max, one worker per
// decision, from two pressure signals sampled every Interval:
//
//   - queue signal: an EWMA of queued flights per active worker;
//   - wait signal: the server's EWMA of how long admitted flights sat
//     queued before a worker picked them up.
//
// Scale-up and scale-down have independent hysteresis windows (UpWindow
// and DownWindow consecutive pressured/idle samples), and every width
// change starts a shared Cooldown during which further changes are
// suppressed — so a bursty queue cannot flap the pool. Shrink never
// kills work: the worker it retires finishes its flight first, and the
// queue stays with the workers that remain.
type AutoscaleConfig struct {
	// Min is the smallest pool width (default 1).
	Min int
	// Max is the largest pool width (default max(Min, 4×Min)). Min == Max
	// pins the width: signals are still sampled and exported, but no
	// decision ever fires.
	Max int
	// Interval is the evaluation period (default 1s).
	Interval time.Duration
	// UpThreshold is the queue signal (queued per active worker) above
	// which a sample counts as pressured (default 1.5).
	UpThreshold float64
	// DownThreshold is the queue signal below which a sample counts as
	// idle (default 0.25). Between the thresholds the pool holds.
	DownThreshold float64
	// WaitBudget is the admission-latency bound: a wait signal above it
	// marks the sample pressured even with a short queue (default 500ms).
	WaitBudget time.Duration
	// UpWindow is how many consecutive pressured samples trigger a grow
	// (default 2).
	UpWindow int
	// DownWindow is how many consecutive idle samples trigger a shrink
	// (default 4 — scaling down is deliberately the slower direction).
	DownWindow int
	// Cooldown is the hold-off after any width change (default 3×Interval).
	Cooldown time.Duration
}

// WithDefaults fills zero fields with the documented defaults. It is
// idempotent, so a caller can resolve a config once, report it, and hand
// it to New, which resolves it again to the same values.
func (c AutoscaleConfig) WithDefaults() AutoscaleConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 4 * c.Min
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.UpThreshold == 0 {
		c.UpThreshold = 1.5
	}
	if c.DownThreshold == 0 {
		c.DownThreshold = 0.25
	}
	if c.WaitBudget <= 0 {
		c.WaitBudget = 500 * time.Millisecond
	}
	if c.UpWindow <= 0 {
		c.UpWindow = 2
	}
	if c.DownWindow <= 0 {
		c.DownWindow = 4
	}
	if c.Cooldown == 0 {
		c.Cooldown = 3 * c.Interval
	}
	return c
}

// Validate rejects configurations that cannot scale sanely. It is called
// on the defaults-filled config, so a zero AutoscaleConfig always passes.
func (c AutoscaleConfig) Validate() error {
	if c.Min < 1 {
		return fmt.Errorf("serve: autoscale min workers %d, want >= 1", c.Min)
	}
	if c.Max < c.Min {
		return fmt.Errorf("serve: autoscale bounds inverted: max workers %d below min %d", c.Max, c.Min)
	}
	if c.UpThreshold <= 0 || c.DownThreshold <= 0 {
		return fmt.Errorf("serve: autoscale thresholds must be positive (up %g, down %g)", c.UpThreshold, c.DownThreshold)
	}
	if c.DownThreshold >= c.UpThreshold {
		return fmt.Errorf("serve: autoscale down threshold %g must be below up threshold %g", c.DownThreshold, c.UpThreshold)
	}
	if c.UpWindow < 1 || c.DownWindow < 1 {
		return fmt.Errorf("serve: autoscale hysteresis windows must be >= 1 (up %d, down %d)", c.UpWindow, c.DownWindow)
	}
	if c.Cooldown < 0 {
		return fmt.Errorf("serve: autoscale cooldown must not be negative (%s)", c.Cooldown)
	}
	return nil
}

// clampWidth folds the configured fixed width into the autoscale bounds:
// the pool boots inside [Min, Max] (Min when Workers is unset).
func (c AutoscaleConfig) clampWidth(workers int) int {
	if workers < c.Min {
		return c.Min
	}
	if workers > c.Max {
		return c.Max
	}
	return workers
}

// queueAlpha smooths the queue signal. At the default 1s interval the
// EWMA crosses ~90% of a step change in about 5 samples, matching the
// hysteresis windows' timescale.
const queueAlpha = 0.4

// autoscaler owns the evaluation loop. All mutable state is touched only
// from evaluate, which runs on a single goroutine (the ticker loop in
// production, the test directly otherwise).
type autoscaler struct {
	s   *Server
	cfg AutoscaleConfig

	queueEwma  float64 // EWMA of queued flights per active worker
	upStreak   int     // consecutive pressured samples
	downStreak int     // consecutive idle samples
	lastScale  time.Time

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// newAutoscaler wires an autoscaler to its server. Call run (usually on a
// fresh goroutine) to start the ticker loop, halt to stop it.
func newAutoscaler(s *Server, cfg AutoscaleConfig) *autoscaler {
	return &autoscaler{
		s:    s,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// run evaluates every Interval until halt.
func (a *autoscaler) run() {
	defer close(a.done)
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case now := <-t.C:
			a.evaluate(now)
		}
	}
}

// halt stops the ticker loop and waits for a mid-flight evaluation to
// finish. Safe to call more than once; a pool already draining refuses
// width changes anyway, so halt-vs-drain ordering is not load-bearing.
func (a *autoscaler) halt() {
	a.stopOnce.Do(func() { close(a.stop) })
	<-a.done
}

// evaluate takes one autoscaling step at the given instant: fold the
// signals, classify the sample (pressured / idle / in-band), advance the
// hysteresis streaks, and move the pool width when a streak crosses its
// window — unless the bounds or the cooldown block it (each suppressed
// decision is counted by reason).
func (a *autoscaler) evaluate(now time.Time) {
	width := a.s.pool.workers()
	queued := a.s.pool.queued()
	inflight := a.s.Inflight()

	a.queueEwma = (1-queueAlpha)*a.queueEwma + queueAlpha*float64(queued)/float64(width)
	if queued == 0 {
		// The wait signal only moves when flights start; fold in a zero
		// sample on empty-queue ticks so a stale spike cannot pin the
		// pool wide after the burst that caused it ended.
		a.s.noteQueueWait(0)
	}
	wait := a.s.queueWaitSeconds()

	m := a.s.m
	m.AutoscaleWorkers.Set(int64(width))
	m.AutoscaleQueueSignal.Set(int64(a.queueEwma * 1000))
	m.AutoscaleWaitSignal.Set(int64(wait * 1000))

	if a.cfg.Min == a.cfg.Max {
		return // pinned width: signals exported, no decisions
	}

	pressured := a.queueEwma > a.cfg.UpThreshold || wait > a.cfg.WaitBudget.Seconds()
	idle := a.queueEwma < a.cfg.DownThreshold && inflight < width
	switch {
	case pressured:
		a.upStreak++
		a.downStreak = 0
	case idle:
		a.downStreak++
		a.upStreak = 0
	default:
		a.upStreak = 0
		a.downStreak = 0
	}

	cooled := a.lastScale.IsZero() || now.Sub(a.lastScale) >= a.cfg.Cooldown
	switch {
	case pressured && a.upStreak >= a.cfg.UpWindow:
		switch {
		case width >= a.cfg.Max:
			m.AutoscaleBlockedBound.Inc()
		case !cooled:
			m.AutoscaleBlockedCooldown.Inc()
		case a.s.pool.grow():
			m.AutoscaleUp.Inc()
			m.AutoscaleWorkers.Set(int64(a.s.pool.workers()))
			a.lastScale = now
			a.upStreak = 0
		}
	case idle && a.downStreak >= a.cfg.DownWindow:
		switch {
		case width <= a.cfg.Min:
			m.AutoscaleBlockedBound.Inc()
		case !cooled:
			m.AutoscaleBlockedCooldown.Inc()
		case a.s.pool.shrink():
			m.AutoscaleDown.Inc()
			m.AutoscaleWorkers.Set(int64(a.s.pool.workers()))
			a.lastScale = now
			a.downStreak = 0
		}
	}
}

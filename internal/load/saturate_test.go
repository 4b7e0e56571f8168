package load

import (
	"context"
	"maps"
	"strings"
	"testing"

	"exaresil/internal/obs"
	"exaresil/internal/serve"
)

// TestInprocQueueModel walks a hand-built schedule through the in-process
// target and checks every admission outcome and virtual latency against
// the single-worker FIFO model: one worker, two queue slots, service 1s.
func TestInprocQueueModel(t *testing.T) {
	target, err := NewInproc(InprocConfig{
		QueueDepth: 2,
		CacheSize:  8,
		Service:    func(serve.Spec) float64 { return 1.0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	spec := func(seed uint64) serve.Spec { return serve.Spec{Exhibit: "fig1", Trials: 2, Seed: seed} }
	arrivals := []Arrival{
		{At: 0.0, Spec: spec(1)}, // miss; runs 0–1; latency 1
		{At: 0.1, Spec: spec(2)}, // miss; queued; runs 1–2; latency 1.9
		{At: 0.2, Spec: spec(2)}, // joined with the queued flight; latency 1.8
		{At: 0.3, Spec: spec(3)}, // miss; queued; runs 2–3; latency 2.7
		{At: 0.4, Spec: spec(4)}, // worker busy + 2 queue slots full → 429
		{At: 1.5, Spec: spec(1)}, // spec 1 finished at t=1 → cache hit, latency 0
		{At: 5.0, Spec: spec(5)}, // everything drained; miss; latency 1
	}
	samples, err := target.RunSchedule(context.Background(), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		class, cache string
		latency      float64
	}
	wants := []want{
		{OutcomeOK, serve.CacheMiss, 1.0},
		{OutcomeOK, serve.CacheMiss, 1.9},
		{OutcomeOK, serve.CacheJoined, 1.8},
		{OutcomeOK, serve.CacheMiss, 2.7},
		{OutcomeRejected, "", 0},
		{OutcomeOK, serve.CacheHit, 0},
		{OutcomeOK, serve.CacheMiss, 1.0},
	}
	for i, w := range wants {
		s := samples[i]
		if s.Class != w.class || s.Cache != w.cache {
			t.Errorf("arrival %d: got %s/%s, want %s/%s", i, s.Class, s.Cache, w.class, w.cache)
		}
		if diff := s.Latency - w.latency; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("arrival %d: latency %v, want %v", i, s.Latency, w.latency)
		}
	}

	c, err := target.Counters()
	if err != nil {
		t.Fatal(err)
	}
	// 1 hit, 1 join; misses count the 429 too (acquire tallies the miss
	// before admission can refuse).
	if c.CacheHits != 1 || c.CacheJoined != 1 || c.CacheMisses != 5 || c.Rejected != 1 {
		t.Errorf("counters = %+v, want hits 1, joined 1, misses 5, rejected 1", c)
	}
}

// TestSweepDeterministic: two full pinned sweeps against fresh in-process
// servers render byte-identical tables — the property golden pinning
// stands on. Run under -race this also exercises the embedded server's
// real concurrency.
func TestSweepDeterministic(t *testing.T) {
	render := func() string {
		tbl, err := GoldenSweepTable()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		tbl.Render(&b)
		return b.String()
	}
	first := render()
	second := render()
	if first != second {
		t.Fatalf("two pinned sweeps differ:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// TestSweepFindsKnee: the pinned golden configuration must saturate — a
// sweep that never finds its knee pins a vacuous exhibit.
func TestSweepFindsKnee(t *testing.T) {
	target, err := NewInproc(GoldenInprocConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	rep, err := Sweep(context.Background(), target, GoldenSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	knee, ok := rep.Knee()
	if !ok {
		t.Fatal("the pinned sweep found no knee")
	}
	if rep.KneeIndex == 0 {
		t.Error("knee at the first step: the grid starts beyond capacity, lower it")
	}
	if knee.Rejected == 0 && rep.Config.P99Budget == 0 {
		t.Error("knee tripped with no evidence")
	}
	for i, s := range rep.Steps {
		if s.Offered != s.OK+s.Rejected+s.Errors {
			t.Errorf("step %d: offered %d != ok %d + rejected %d + errors %d", i, s.Offered, s.OK, s.Rejected, s.Errors)
		}
		if s.Errors != 0 {
			t.Errorf("step %d: %d errors in a deterministic sweep", i, s.Errors)
		}
	}
}

// TestSweepValidation: bad grids are refused up front.
func TestSweepValidation(t *testing.T) {
	target, err := NewInproc(InprocConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	bad := []SweepConfig{
		{StepDur: 10},                          // empty grid
		{Rates: []float64{1, -2}, StepDur: 10}, // negative rate
		{Rates: []float64{1}, StepDur: 0},      // no duration
	}
	for i, cfg := range bad {
		if _, err := Sweep(context.Background(), target, cfg); err == nil {
			t.Errorf("case %d: want a validation error", i)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("test_latency", "t", []float64{0.1, 0.5, 1, 5})
	if got := HistQuantile(h, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// 10 observations in (0.1, 0.5]: the median interpolates inside it.
	for i := 0; i < 10; i++ {
		h.Observe(0.3)
	}
	got := HistQuantile(h, 0.5)
	if got <= 0.1 || got > 0.5 {
		t.Errorf("p50 = %v, want inside (0.1, 0.5]", got)
	}
	// Load the +Inf bucket; extreme quantiles clamp to the top bound.
	for i := 0; i < 90; i++ {
		h.Observe(10)
	}
	if got := HistQuantile(h, 0.99); got != 5 {
		t.Errorf("p99 with mass at +Inf = %v, want the top bound 5", got)
	}
}

// TestReadMetrics: a series sums across its labels under its bare name
// and per label under name{key="value"}; comments are skipped.
func TestReadMetrics(t *testing.T) {
	m, err := ReadMetrics(strings.NewReader(`# TYPE c counter
c{outcome="hit",replica="0"} 3
c{outcome="hit",replica="1"} 4
c{outcome="miss",replica="1"} 2
`))
	want := map[string]uint64{"c": 9, `c{outcome="hit"}`: 7, `c{outcome="miss"}`: 2, `c{replica="0"}`: 3, `c{replica="1"}`: 6}
	if err != nil || !maps.Equal(m, want) {
		t.Errorf("ReadMetrics = %v, %v; want %v", m, err, want)
	}
}

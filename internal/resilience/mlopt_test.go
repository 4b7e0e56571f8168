package resilience

import (
	"math"
	"testing"

	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

func exaRates(nodes int, mtbf units.Duration) [3]units.Rate {
	return failures.MustModel(mtbf, failures.DefaultSeverityPMF()).SeverityRates(nodes)
}

func TestLevelAtPattern(t *testing.T) {
	m := MultilevelSchedule{Interval: 1, L1PerL2: 3, L2PerL3: 2}
	// Pattern period 6: positions 3 -> L2, 6 -> L3, others L1.
	want := map[int]int{1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 3, 7: 1, 9: 2, 12: 3}
	for k, lvl := range want {
		if got := m.LevelAt(k); got != lvl {
			t.Errorf("LevelAt(%d) = %d, want %d", k, got, lvl)
		}
	}
}

func TestLevelAtDegeneratePattern(t *testing.T) {
	// n1 = n2 = 1: every checkpoint is level 3.
	m := MultilevelSchedule{Interval: 1, L1PerL2: 1, L2PerL3: 1}
	for k := 1; k <= 5; k++ {
		if got := m.LevelAt(k); got != 3 {
			t.Errorf("all-L3 pattern: LevelAt(%d) = %d", k, got)
		}
	}
}

func TestOptimizeProducesValidSchedule(t *testing.T) {
	cfg := machine.Exascale()
	costs := ComputeCosts(testApp(workload.C64, 30000), cfg)
	sched, err := OptimizeMultilevel(costs, exaRates(30000, cfg.MTBF), DefaultMultilevelConfig())
	if err != nil {
		t.Fatalf("optimizer failed: %v", err)
	}
	if sched.Interval <= 0 || math.IsInf(float64(sched.Interval), 1) {
		t.Errorf("interval %v not positive finite", sched.Interval)
	}
	if sched.L1PerL2 < 1 || sched.L2PerL3 < 1 {
		t.Errorf("pattern counts %d, %d invalid", sched.L1PerL2, sched.L2PerL3)
	}
	// The schedule must be cheaper (in expectation) than single-level
	// all-PFS checkpointing at the same interval resolution: multilevel's
	// whole point.
	allPFS := MultilevelSchedule{
		Interval: units.Duration(YoungPeriod(costs.PFS, exaRates(30000, cfg.MTBF)[0]*2)),
		L1PerL2:  1, L2PerL3: 1,
	}
	if sched.ExpectedStretch(costs, exaRates(30000, cfg.MTBF)) >
		allPFS.ExpectedStretch(costs, exaRates(30000, cfg.MTBF)) {
		t.Error("optimized multilevel schedule is worse than all-PFS checkpointing")
	}
}

func TestOptimizeL3SpacingRespondsToCost(t *testing.T) {
	rates := exaRates(30000, 10*units.Year)
	cheap := Costs{L1: units.Duration(0.003), L2: units.Duration(0.013), PFS: 2 * units.Minute}
	dear := Costs{L1: units.Duration(0.003), L2: units.Duration(0.013), PFS: 40 * units.Minute}
	s1, err := OptimizeMultilevel(cheap, rates, DefaultMultilevelConfig())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OptimizeMultilevel(dear, rates, DefaultMultilevelConfig())
	if err != nil {
		t.Fatal(err)
	}
	spacing := func(s MultilevelSchedule) float64 {
		return float64(s.Interval) * float64(s.L1PerL2*s.L2PerL3)
	}
	if spacing(s2) <= spacing(s1) {
		t.Errorf("L3 spacing should grow with PFS cost: %v (PFS=2min) vs %v (PFS=40min)",
			spacing(s1), spacing(s2))
	}
}

func TestOptimizeZeroRates(t *testing.T) {
	costs := Costs{L1: 1, L2: 2, PFS: 3}
	sched, err := OptimizeMultilevel(costs, [3]units.Rate{}, DefaultMultilevelConfig())
	if err != nil {
		t.Fatalf("zero-rate optimization failed: %v", err)
	}
	if !math.IsInf(float64(sched.Interval), 1) {
		t.Errorf("no failures should disable checkpointing, got interval %v", sched.Interval)
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	// Failure every minute with half-hour restores: nothing helps.
	costs := Costs{L1: 30 * units.Minute, L2: 40 * units.Minute, PFS: 60 * units.Minute}
	rates := [3]units.Rate{0.5, 0.3, 0.2}
	if _, err := OptimizeMultilevel(costs, rates, DefaultMultilevelConfig()); err == nil {
		t.Error("expected infeasibility error")
	}
}

func TestOptimizeCacheConsistency(t *testing.T) {
	cfg := machine.Exascale()
	costs := ComputeCosts(testApp(workload.A32, 1200), cfg)
	rates := exaRates(1200, cfg.MTBF)
	a, err1 := OptimizeMultilevel(costs, rates, DefaultMultilevelConfig())
	b, err2 := OptimizeMultilevel(costs, rates, DefaultMultilevelConfig())
	if err1 != nil || err2 != nil {
		t.Fatalf("optimizer errors: %v, %v", err1, err2)
	}
	if a != b {
		t.Errorf("cached result differs: %v vs %v", a, b)
	}
}

// TestOptimizeCachedMatchesUncached asserts the memoization layer is
// semantically invisible: for the same parameter tuple, a cache hit, a
// cache miss, and the uncached search all return the identical schedule.
func TestOptimizeCachedMatchesUncached(t *testing.T) {
	cfg := machine.Exascale()
	bounds := DefaultMultilevelConfig()
	for _, nodes := range []int{1200, 30000, 120000} {
		costs := ComputeCosts(testApp(workload.D64, nodes), cfg)
		rates := exaRates(nodes, cfg.MTBF)
		miss, err1 := OptimizeMultilevel(costs, rates, bounds)
		hit, err2 := OptimizeMultilevel(costs, rates, bounds)
		raw, err3 := optimizeMultilevel(costs, rates, bounds)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("nodes=%d: optimizer errors: %v, %v, %v", nodes, err1, err2, err3)
		}
		if miss != hit || hit != raw {
			t.Errorf("nodes=%d: schedules diverge: miss=%v hit=%v uncached=%v", nodes, miss, hit, raw)
		}
	}
}

// TestExactCachedMatchesUncached is the same invariant for the exact
// Markov refinement path.
func TestExactCachedMatchesUncached(t *testing.T) {
	cfg := machine.Exascale()
	bounds := DefaultMultilevelConfig()
	costs := ComputeCosts(testApp(workload.C64, 30000), cfg)
	rates := exaRates(30000, cfg.MTBF)
	cached, err1 := OptimizeMultilevelExact(costs, rates, bounds)
	again, err2 := OptimizeMultilevelExact(costs, rates, bounds)
	raw, err3 := optimizeMultilevelExact(costs, rates, bounds)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatalf("optimizer errors: %v, %v, %v", err1, err2, err3)
	}
	if cached != again || again != raw {
		t.Errorf("exact schedules diverge: %v / %v / %v", cached, again, raw)
	}
}

// TestScheduleCacheCounters asserts hits and misses are observable and
// that the uncached search leaves the counters untouched.
func TestScheduleCacheCounters(t *testing.T) {
	FlushScheduleCache()
	defer FlushScheduleCache()
	cfg := machine.Exascale()
	costs := ComputeCosts(testApp(workload.B32, 6000), cfg)
	rates := exaRates(6000, cfg.MTBF)
	bounds := DefaultMultilevelConfig()

	if _, err := OptimizeMultilevel(costs, rates, bounds); err != nil {
		t.Fatal(err)
	}
	if hits, misses := ScheduleCacheStats(); hits != 0 || misses != 1 {
		t.Errorf("after cold call: hits=%d misses=%d, want 0/1", hits, misses)
	}
	if _, err := OptimizeMultilevel(costs, rates, bounds); err != nil {
		t.Fatal(err)
	}
	if hits, misses := ScheduleCacheStats(); hits != 1 || misses != 1 {
		t.Errorf("after warm call: hits=%d misses=%d, want 1/1", hits, misses)
	}

	if _, err := optimizeMultilevel(costs, rates, bounds); err != nil {
		t.Fatal(err)
	}
	if hits, misses := ScheduleCacheStats(); hits != 1 || misses != 1 {
		t.Errorf("uncached search moved the counters: hits=%d misses=%d", hits, misses)
	}
}

func TestExpectedStretchProperties(t *testing.T) {
	costs := Costs{L1: units.Duration(0.0033), L2: units.Duration(0.0133), PFS: 17 * units.Minute}
	rates := exaRates(30000, 10*units.Year)
	base := MultilevelSchedule{Interval: 1 * units.Minute, L1PerL2: 8, L2PerL3: 8}
	v := base.ExpectedStretch(costs, rates)
	if v <= 1 {
		t.Errorf("stretch %v must exceed 1 (overheads exist)", v)
	}
	// Higher failure rates must never decrease the stretch.
	double := [3]units.Rate{rates[0] * 2, rates[1] * 2, rates[2] * 2}
	if base.ExpectedStretch(costs, double) < v {
		t.Error("stretch decreased when failure rates doubled")
	}
	// Degenerate schedules are infeasible.
	if !math.IsInf(MultilevelSchedule{Interval: 0, L1PerL2: 1, L2PerL3: 1}.ExpectedStretch(costs, rates), 1) {
		t.Error("zero interval should be infeasible")
	}
	if !math.IsInf(MultilevelSchedule{Interval: 1, L1PerL2: 0, L2PerL3: 1}.ExpectedStretch(costs, rates), 1) {
		t.Error("zero pattern count should be infeasible")
	}
}

func TestMultilevelConfigValidate(t *testing.T) {
	bad := []MultilevelConfig{
		{MaxL1PerL2: 0, MaxL2PerL3: 5, IntervalSteps: 10},
		{MaxL1PerL2: 5, MaxL2PerL3: 0, IntervalSteps: 10},
		{MaxL1PerL2: 5, MaxL2PerL3: 5, IntervalSteps: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultMultilevelConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

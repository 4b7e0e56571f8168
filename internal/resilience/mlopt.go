package resilience

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"exaresil/internal/units"
)

// MultilevelSchedule is a repeating three-level checkpoint pattern:
// checkpoints are triggered every Interval of work; every L1PerL2-th
// checkpoint is promoted from level 1 to level 2, and every
// (L1PerL2*L2PerL3)-th to level 3.
type MultilevelSchedule struct {
	// Interval is the work between consecutive checkpoints.
	Interval units.Duration
	// L1PerL2 is n1, the pattern length between level-2 checkpoints.
	L1PerL2 int
	// L2PerL3 is n2, the number of level-2 periods per level-3
	// checkpoint.
	L2PerL3 int
}

// LevelAt reports the level of the k-th checkpoint (1-based) under the
// pattern.
func (m MultilevelSchedule) LevelAt(k int) int {
	period := m.L1PerL2 * m.L2PerL3
	switch {
	case period > 0 && k%period == 0:
		return 3
	case m.L1PerL2 > 0 && k%m.L1PerL2 == 0:
		return 2
	default:
		return 1
	}
}

// String renders the schedule.
func (m MultilevelSchedule) String() string {
	return fmt.Sprintf("every %s; L2 every %d, L3 every %d checkpoints",
		m.Interval, m.L1PerL2, m.L1PerL2*m.L2PerL3)
}

// MultilevelConfig bounds the schedule optimizer's search.
type MultilevelConfig struct {
	// MaxL1PerL2 and MaxL2PerL3 cap the pattern counts n1 and n2.
	MaxL1PerL2, MaxL2PerL3 int
	// IntervalSteps is the resolution of the base-interval grid.
	IntervalSteps int
}

// DefaultMultilevelConfig returns search bounds ample for every
// configuration in the paper's studies.
func DefaultMultilevelConfig() MultilevelConfig {
	return MultilevelConfig{MaxL1PerL2: 24, MaxL2PerL3: 24, IntervalSteps: 33}
}

// Validate reports whether the bounds are usable.
func (c MultilevelConfig) Validate() error {
	if c.MaxL1PerL2 < 1 || c.MaxL2PerL3 < 1 {
		return fmt.Errorf("resilience: multilevel pattern caps must be >= 1 (got %d, %d)",
			c.MaxL1PerL2, c.MaxL2PerL3)
	}
	if c.IntervalSteps < 2 {
		return fmt.Errorf("resilience: interval grid needs >= 2 steps (got %d)", c.IntervalSteps)
	}
	return nil
}

// ExpectedStretch evaluates the renewal-model objective the optimizer
// minimizes: the expected wall time per unit of useful work under the
// schedule, given per-level checkpoint costs and per-severity failure
// rates. It returns +Inf for infeasible schedules (failure cost consumes
// all progress).
//
// The model follows the structure of Moody et al.'s Markov formulation to
// first order: each work interval tau pays the pattern-averaged checkpoint
// cost; a severity-j failure costs its restore time plus the recomputation
// of (on average) half the spacing between level->=j checkpoints, with the
// recomputed work itself paying checkpoint overhead again.
func (m MultilevelSchedule) ExpectedStretch(costs Costs, rates [3]units.Rate) float64 {
	tau := float64(m.Interval)
	if tau <= 0 || m.L1PerL2 < 1 || m.L2PerL3 < 1 {
		return math.Inf(1)
	}
	n1, n2 := float64(m.L1PerL2), float64(m.L2PerL3)
	period := n1 * n2

	c1, c2, c3 := float64(costs.L1), float64(costs.L2), float64(costs.PFS)
	// Per pattern period of n1*n2 checkpoints: one is level 3, (n2-1) are
	// level 2, the rest level 1.
	avgCost := ((period-n2)*c1 + (n2-1)*c2 + c3) / period
	overhead := 1 + avgCost/tau // wall time per unit work, failure-free

	// Expected cost per failure of severity j: restore from level j (the
	// typical surviving level) plus re-executing half the level->=j
	// checkpoint spacing at the failure-free overhead rate.
	spacing := [3]float64{tau, n1 * tau, period * tau}
	restore := [3]float64{c1, c2, c3}
	lossRate := 0.0 // fraction of wall time consumed by failure handling
	for j := 0; j < 3; j++ {
		perFailure := restore[j] + (spacing[j]/2)*overhead
		lossRate += float64(rates[j]) * perFailure
	}
	if lossRate >= 1 {
		return math.Inf(1)
	}
	return overhead / (1 - lossRate)
}

// optCacheKey memoizes optimizer calls on the full parameter tuple:
// cluster studies construct an executor per mapped job, so thousands of
// constructions share the same (costs, rates, bounds) optimization.
type optCacheKey struct {
	costs  Costs
	rates  [3]units.Rate
	bounds MultilevelConfig
}

type optCacheEntry struct {
	sched MultilevelSchedule
	err   error
}

// optCache is the process-wide schedule memoization table. Entries are
// immutable once stored, and both racing writers compute identical values
// from the same key, so sync.Map's last-writer-wins is harmless. The
// companion counters make the cache observable: a study that should be
// hitting but isn't shows up immediately in ScheduleCacheStats.
var (
	optCache       sync.Map // optCacheKey -> optCacheEntry
	optCacheHits   atomic.Uint64
	optCacheMisses atomic.Uint64
)

// cacheKey is the memoization key of one optimizer call.
func cacheKey(costs Costs, rates [3]units.Rate, bounds MultilevelConfig) optCacheKey {
	return optCacheKey{costs: costs, rates: rates, bounds: bounds}
}

// ScheduleCacheStats reports how many optimizer calls were served from the
// memoization cache versus computed. Counters are cumulative across the
// process; FlushScheduleCache resets them.
func ScheduleCacheStats() (hits, misses uint64) {
	return optCacheHits.Load(), optCacheMisses.Load()
}

// FlushScheduleCache empties the schedule memoization cache and zeroes its
// hit/miss counters. Benchmarks use it to measure cold-start cost; tests
// use it to isolate cache behaviour.
func FlushScheduleCache() {
	optCache.Clear()
	optCacheHits.Store(0)
	optCacheMisses.Store(0)
}

// OptimizeMultilevel searches for the schedule minimizing ExpectedStretch.
// The base interval is scanned on a logarithmic grid spanning two orders
// of magnitude around the Daly period for the cheapest level and the total
// failure rate; pattern counts are scanned exhaustively within the bounds.
// It returns an error when no schedule in the search space is feasible.
//
// Results are memoized on the full (costs, rates, bounds) tuple; a cached
// call returns exactly what the uncached search optimizeMultilevel does,
// because the search is deterministic.
func OptimizeMultilevel(costs Costs, rates [3]units.Rate, bounds MultilevelConfig) (MultilevelSchedule, error) {
	if err := bounds.Validate(); err != nil {
		return MultilevelSchedule{}, err
	}
	key := cacheKey(costs, rates, bounds)
	if v, ok := optCache.Load(key); ok {
		optCacheHits.Add(1)
		e := v.(optCacheEntry)
		return e.sched, e.err
	}
	optCacheMisses.Add(1)
	sched, err := optimizeMultilevel(costs, rates, bounds)
	optCache.Store(key, optCacheEntry{sched, err})
	return sched, err
}

func optimizeMultilevel(costs Costs, rates [3]units.Rate, bounds MultilevelConfig) (MultilevelSchedule, error) {
	total := units.Rate(0)
	for _, r := range rates {
		total += r
	}
	if total <= 0 {
		// No failures: checkpoint (essentially) never. One gigantic
		// interval keeps the engine honest without measurable overhead.
		return MultilevelSchedule{
			Interval: units.Duration(math.Inf(1)),
			L1PerL2:  1,
			L2PerL3:  1,
		}, nil
	}

	// Center the interval grid on the Daly period for level-1 cost
	// against the total failure rate; that is where the optimum lands
	// when level-1 failures dominate, and the grid spans far enough to
	// cover the other regimes.
	center := float64(YoungPeriod(costs.L1, total))
	lo, hi := center/16, center*16
	if lo <= 0 || math.IsInf(hi, 1) || math.IsNaN(hi) {
		return MultilevelSchedule{}, fmt.Errorf("degenerate interval search range [%v, %v]", lo, hi)
	}

	best := MultilevelSchedule{}
	bestVal := math.Inf(1)
	steps := bounds.IntervalSteps
	for i := 0; i < steps; i++ {
		tau := lo * math.Pow(hi/lo, float64(i)/float64(steps-1))
		for n1 := 1; n1 <= bounds.MaxL1PerL2; n1++ {
			for n2 := 1; n2 <= bounds.MaxL2PerL3; n2++ {
				cand := MultilevelSchedule{
					Interval: units.Duration(tau),
					L1PerL2:  n1,
					L2PerL3:  n2,
				}
				if v := cand.ExpectedStretch(costs, rates); v < bestVal {
					bestVal = v
					best = cand
				}
			}
		}
	}
	if math.IsInf(bestVal, 1) {
		return MultilevelSchedule{}, fmt.Errorf(
			"every schedule in the search space loses work faster than it computes (rates %v)", rates)
	}
	return best, nil
}

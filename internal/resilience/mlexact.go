package resilience

import (
	"errors"
	"math"

	"exaresil/internal/units"
)

// This file implements the Markov-chain evaluation of a multilevel
// checkpoint schedule, after the model of Moody et al. (the paper's [3]).
// Where ExpectedStretch is a first-order renewal approximation (fast
// enough for the optimizer's full grid), ExactStretch solves the chain's
// expected-absorption-time equations exactly for exponential failures.
//
// States: i = 1..N, "about to execute interval i" of the repeating pattern
// (work tau followed by the checkpoint LevelAt(i)); state N+1 absorbs
// (pattern complete). During interval i's exposure d_i = tau + c_i,
// failures arrive at total rate lambda and carry severity j with
// probability pi_j. A severity-j failure returns the chain to the state
// just after the newest checkpoint of level >= j — position-based in
// steady state: severity 1 retries the current interval (the previous
// position's checkpoint survives), severity 2 returns to the start of the
// current L2 block, and severity 3 to the start of the pattern — after an
// uninterruptible restore of the surviving checkpoint's level.
//
// Each state's equation references only V_i itself, V_{i+1}, the current
// block start, and state 1, so the linear system solves in O(N) by
// expressing states as affine functions of (V_blockstart, V_1) and closing
// each block from the last to the first.

// affine2 is c0 + cS*V_blockstart + c1*V_1.
type affine2 struct{ c0, cS, c1 float64 }

// ExactStretch computes the expected wall time per unit of useful work of
// the schedule under exponential failures, by solving the Markov chain
// exactly. It returns +Inf for degenerate schedules. Rates are the
// per-severity failure rates; zero total rate gives the failure-free
// stretch.
func (m MultilevelSchedule) ExactStretch(costs Costs, rates [3]units.Rate) float64 {
	tau := float64(m.Interval)
	if tau <= 0 || m.L1PerL2 < 1 || m.L2PerL3 < 1 {
		return math.Inf(1)
	}
	n1 := m.L1PerL2
	N := m.L1PerL2 * m.L2PerL3

	lambda := 0.0
	for _, r := range rates {
		lambda += float64(r)
	}
	// Failure-free: stretch is pure checkpoint overhead.
	if lambda <= 0 {
		total := 0.0
		for i := 1; i <= N; i++ {
			total += tau + float64(costs.CostForLevel(m.LevelAt(i)))
		}
		return total / (float64(N) * tau)
	}
	var pi [3]float64
	for j, r := range rates {
		pi[j] = float64(r) / lambda
	}

	// levelBefore(i) is the level of the newest checkpoint at or below
	// severity requirements when standing at the start of interval i;
	// position 0 carries the previous pattern's PFS checkpoint.
	levelAt := func(k int) int {
		if k <= 0 {
			return 3
		}
		return m.LevelAt(k)
	}
	// restoreBlock is the expected time to complete an uninterruptible
	// restore of length r with instant retries: (e^{lambda r} - 1)/lambda.
	restoreBlock := func(level int) float64 {
		r := float64(costs.CostForLevel(level))
		return math.Expm1(lambda*r) / lambda
	}

	// Severity-2 return state for interval i: start of its L2 block.
	// Blocks are [s, s+n1-1] with s = 1, n1+1, 2n1+1, ...
	blockStart := func(i int) int { return ((i-1)/n1)*n1 + 1 }

	// Walk blocks from last to first. `next` is V_{blockEnd+1} expressed
	// as affine in V_1 only (cS unused at block boundaries).
	next := affine2{} // V_{N+1} = 0

	// We record V_1's final value to close the system.
	var v1Closed bool
	var v1 float64

	numBlocks := (N + n1 - 1) / n1
	for b := numBlocks - 1; b >= 0; b-- {
		s := b*n1 + 1
		e := s + n1 - 1
		if e > N {
			e = N
		}
		// Express V_i for i = e..s as affine in (V_s, V_1).
		cur := affine2{c0: next.c0, c1: next.c1} // V_{e+1}
		for i := e; i >= s; i-- {
			d := tau + float64(costs.CostForLevel(m.LevelAt(i)))
			p := math.Exp(-lambda * d)
			attempt := (1 - p) / lambda // E[elapsed per attempt]

			// Restore expectations per severity, weighted.
			rest := pi[0]*restoreBlock(levelAt(i-1)) +
				pi[1]*restoreBlock(levelAt(blockStart(i)-1)) +
				pi[2]*restoreBlock(3)

			q := 1 - p // failure probability
			// V_i = attempt + q*rest + p*V_{i+1}
			//       + q*pi1*V_i + q*pi2*V_s + q*pi3*V_1
			denom := 1 - q*pi[0]
			vi := affine2{
				c0: (attempt + q*rest + p*cur.c0) / denom,
				cS: (p*cur.cS + q*pi[1]) / denom,
				c1: (p*cur.c1 + q*pi[2]) / denom,
			}
			cur = vi
		}
		// Close V_s = cur.c0 + cur.cS*V_s + cur.c1*V_1.
		if cur.cS >= 1 {
			return math.Inf(1) // no drift toward absorption
		}
		c0 := cur.c0 / (1 - cur.cS)
		c1 := cur.c1 / (1 - cur.cS)
		if s == 1 {
			// V_1 = c0 + c1*V_1.
			if c1 >= 1 {
				return math.Inf(1)
			}
			v1 = c0 / (1 - c1)
			v1Closed = true
			break
		}
		next = affine2{c0: c0, c1: c1}
	}
	if !v1Closed || math.IsNaN(v1) || v1 <= 0 {
		return math.Inf(1)
	}
	return v1 / (float64(N) * tau)
}

// OptimizeMultilevelExact refines the first-order optimizer's schedule
// with the exact Markov evaluation: the fast objective scans the full
// grid, then ExactStretch re-scores a neighborhood of the winner
// (interval x {1/2..2}, pattern counts +-2) and keeps the best. Results
// are memoized alongside the first-order cache.
func OptimizeMultilevelExact(costs Costs, rates [3]units.Rate, bounds MultilevelConfig) (MultilevelSchedule, error) {
	key := cacheKey(costs, rates, bounds)
	key.bounds.IntervalSteps = -key.bounds.IntervalSteps // separate cache namespace
	if v, ok := optCache.Load(key); ok {
		optCacheHits.Add(1)
		e := v.(optCacheEntry)
		return e.sched, e.err
	}
	optCacheMisses.Add(1)
	sched, err := optimizeMultilevelExact(costs, rates, bounds)
	optCache.Store(key, optCacheEntry{sched, err})
	return sched, err
}

// optimizeMultilevelExact is the uncached exact refinement.
func optimizeMultilevelExact(costs Costs, rates [3]units.Rate, bounds MultilevelConfig) (MultilevelSchedule, error) {
	first, err := OptimizeMultilevel(costs, rates, bounds)
	if err != nil {
		return first, err
	}
	if math.IsInf(float64(first.Interval), 1) {
		// No failures: nothing to refine.
		return first, nil
	}

	best := first
	bestVal := first.ExactStretch(costs, rates)
	for _, scale := range []float64{0.5, 0.7, 1, 1.4, 2} {
		for dn1 := -2; dn1 <= 2; dn1++ {
			for dn2 := -2; dn2 <= 2; dn2++ {
				cand := MultilevelSchedule{
					Interval: units.Duration(float64(first.Interval) * scale),
					L1PerL2:  first.L1PerL2 + dn1,
					L2PerL3:  first.L2PerL3 + dn2,
				}
				if cand.L1PerL2 < 1 || cand.L2PerL3 < 1 ||
					cand.L1PerL2 > bounds.MaxL1PerL2 || cand.L2PerL3 > bounds.MaxL2PerL3 {
					continue
				}
				if v := cand.ExactStretch(costs, rates); v < bestVal {
					bestVal, best = v, cand
				}
			}
		}
	}
	if math.IsInf(bestVal, 1) {
		err = errInfeasibleExact
	}
	return best, err
}

// errInfeasibleExact mirrors the first-order optimizer's infeasibility.
var errInfeasibleExact = errors.New("resilience: no schedule achieves finite exact stretch")

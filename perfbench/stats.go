package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank method: the
// smallest sample with at least a q share of the samples at or below it.
// It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle sample (the mean of the two middle ones for an even
// count), so a handful of passes gives a stable centre.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile picks the reported tail percentile: p99 when at least ten
// samples lie beyond it, otherwise the highest quantile that still leaves
// ten samples beyond it, and the maximum below eleven samples. It returns
// the quantile used and its value.
func tailQuantile(xs []float64) (q, v float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	beyond := max(10, n/100) // n/100 samples lie beyond the nearest-rank p99
	i := n - beyond - 1
	if i < 0 {
		i = n - 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return float64(i+1) / float64(n), s[i]
}

// ms and sec convert durations to the reported float units.
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

// share is num/den, 0 when den is 0 (a layer that did no work).
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

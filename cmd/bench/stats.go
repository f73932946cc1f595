package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail figure always rests on
// more than a handful of observations.
const minBeyond = 10

// tailLadder lists the percentiles a tail figure may fall back to, highest
// first, when the workload's preferred one has too few samples beyond it.
var tailLadder = []float64{0.99, 0.90, 0.75, 0.50}

// percentile returns the nearest-rank q-quantile of ascending samples and
// whether the percentile rule admits it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps float error in q*n (0.99*1000) from adding a rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= minBeyond
}

// tail returns the highest percentile at or below want that the
// percentile rule admits, and which percentile that was. With too few
// samples for any rung it returns the median and q = 0.5, reported as
// such.
func tail(sorted []float64, want float64) (v, q float64) {
	for _, q := range tailLadder {
		if q > want {
			continue
		}
		if v, ok := percentile(sorted, q); ok {
			return v, q
		}
	}
	v, _ = percentile(sorted, 0.5)
	return v, 0.5
}

// median is the conventional median: the mean of the two middle samples
// when their number is even. Unlike a nearest-rank median it does not
// jump between clusters when a workload's pool is split evenly between a
// fast and a slow class of inputs.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

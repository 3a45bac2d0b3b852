// Package stat holds the few order statistics the benchmark reports:
// percentiles of latency samples with the rule that decides whether a sample
// is large enough to state one, and the median and quartiles of repeated
// runs.
package stat

import (
	"math"
	"sort"
)

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the sample at or
// below it. sorted must be ascending and non-empty.
func Percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Beyond reports how many of n samples lie strictly beyond the p-quantile
// under the nearest-rank rule.
func Beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// MinBeyond is how many samples must lie beyond a percentile before the
// benchmark states it: with fewer, the figure is one or two outliers, not a
// tail.
const MinBeyond = 10

// Supports reports whether a sample of n can state its p-quantile.
func Supports(n int, p float64) bool { return Beyond(n, p) >= MinBeyond }

// Sorted returns an ascending copy of v.
func Sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// Median returns the median of v (mean of the middle pair for even sizes).
func Median(v []float64) float64 {
	s := Sorted(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of v by the exclusive
// method (the one Python's statistics.quantiles(v, n=4) defaults to), which
// is what the acceptance procedure for this benchmark uses. It needs at least
// two values; with fewer it returns the single value twice.
func Quartiles(v []float64) (q1, q3 float64) {
	s := Sorted(v)
	n := len(s)
	if n < 2 {
		if n == 0 {
			return math.NaN(), math.NaN()
		}
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

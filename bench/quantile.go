package main

import (
	"math"
	"sort"
)

// minBeyond is the eligibility rule for a reported percentile: at least this
// many raw samples must lie beyond it, or the figure is one outlier's value
// and does not repeat between runs.
const minBeyond = 10

// samples is a set of raw measurements (latencies in nanoseconds, mostly)
// kept in memory; quantiles are read from the sorted values, never from
// histogram buckets.
type samples []int64

// sorted returns the values in increasing order without disturbing the
// receiver, whose order is arrival order and is used by the output checks.
func (s samples) sorted() []int64 {
	out := append([]int64(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantileSorted returns the q-quantile (0 ≤ q ≤ 1) of an increasing slice
// by linear interpolation between the two nearest ranks; NaN when empty.
func quantileSorted(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return float64(sorted[0])
	}
	if q >= 1 {
		return float64(sorted[n-1])
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return float64(sorted[n-1])
	}
	return float64(sorted[lo]) + frac*float64(sorted[lo+1]-sorted[lo])
}

// eligible reports whether the q-quantile of n samples has at least
// minBeyond samples on its far side (above it for q ≥ 0.5, below otherwise).
func eligible(n int, q float64) bool {
	far := q
	if q >= 0.5 {
		far = 1 - q
	}
	return float64(n)*far >= minBeyond
}

// quantile is the q-quantile of every sample of the series taken together
// (one series per connection): the whole phase, so a stall that delays a
// tenth of a phase's requests moves its p90.
func quantile(series []samples, q float64) float64 {
	var all samples
	for _, s := range series {
		all = append(all, s...)
	}
	return quantileSorted(all.sorted(), q)
}

// medianFloat returns the median of vs (mean of the two middle values for an
// even count); NaN when empty. vs is not modified.
func medianFloat(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minMax returns the smallest and largest of vs; NaNs when empty.
func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// Package metrics is a dependency-free instrumentation substrate for the
// moving-object service layers: atomic counters and gauges, fixed-bucket
// latency histograms with quantile estimation, and a named registry with
// label support that renders both a human-readable table and
// Prometheus-style exposition text.
//
// The paper's systems argument — compress on ingest so that storage,
// indexing and transmission all shrink — is only credible when the live
// trade-off is observable: points in versus points retained, append and
// query latency, fsync cost, backpressure drops. Every hot path
// (internal/server, internal/store, internal/wal, internal/stream)
// registers its instruments here; cmd/trajserver exposes the registry over
// the TCP protocol (METRICS) and optionally HTTP (/metrics), and the
// benchmark in bench/ reads its counters to check and break down its runs.
//
// All instruments are safe for concurrent use and update via sync/atomic
// only — an Observe/Inc on a hot path is a handful of atomic operations,
// never a lock.
package metrics

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n; negative n is ignored (counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 value that may go up and down
// (occupancy, ratios, sizes).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d (negative d decreases it).
func (g *Gauge) Add(d float64) { addFloatBits(&g.bits, d) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloatBits atomically adds d to a float64 stored as bits.
func addFloatBits(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// maxFloatBits atomically raises a float64-as-bits cell to v if v exceeds it.
func maxFloatBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Histogram accumulates non-negative observations (latencies in seconds,
// sizes) into fixed buckets, tracking count, sum and maximum. Quantiles are
// estimated by linear interpolation inside the bucket holding the requested
// rank, so accuracy is bounded by bucket width — the standard fixed-bucket
// trade: O(1) lock-free observes against a few per-bucket resolution.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

// DefBuckets is the default latency scale in seconds: 10 µs to 10 s in a
// 1-2.5-5 progression, fine enough to separate a loopback round-trip from
// an fsync from a stall.
func DefBuckets() []float64 {
	return []float64{
		1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// newHistogram validates and copies the bucket bounds. Bounds must be
// finite, positive and strictly ascending.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i, b := range own {
		if math.IsNaN(b) || math.IsInf(b, 0) || b <= 0 {
			panic("metrics: histogram bounds must be finite and positive")
		}
		if i > 0 && b <= own[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: own, counts: make([]atomic.Int64, len(own)+1)}
}

// Observe records one value. Negative observations are clamped to zero
// (latencies can read negative across clock adjustments); NaN is dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v; len(bounds) = overflow
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloatBits(&h.sum, v)
	maxFloatBits(&h.max, v)
}

// ObserveSince records the elapsed wall time since t0, in seconds.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Max returns the largest observation, 0 before the first.
func (h *Histogram) Max() float64 { return math.Float64frombits(h.max.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution; NaN when nothing was observed. The estimate interpolates
// linearly inside the bucket containing rank q·count, and is clamped by the
// tracked maximum, which the overflow bucket also reports exactly.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bucketQuantile(h.bounds, counts, h.Max(), q)
}

// bucketQuantile is the shared quantile estimator over a bucket-count
// snapshot; Histogram.Quantile and MetricSnapshot.Quantile both use it.
func bucketQuantile(bounds []float64, counts []int64, max, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1 // below the first observation there is nothing to interpolate
	}
	cum := 0.0
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(bounds) {
			return max // overflow bucket: the tracked maximum is exact
		}
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		upper := bounds[i]
		if max < upper {
			upper = max // no observation exceeds the tracked maximum
		}
		if upper < lower {
			lower = upper
		}
		return lower + (upper-lower)*(rank-prev)/float64(c)
	}
	return max
}

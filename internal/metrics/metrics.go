// Package metrics is a dependency-free instrumentation substrate for the
// moving-object service layers: atomic counters and gauges, fixed-bucket
// latency histograms, and a named registry with label support that renders
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

// Histogram accumulates non-negative observations (latencies in seconds,
// sizes) into fixed buckets, tracking count and sum — the Prometheus
// histogram: O(1) lock-free observes, with quantiles left to the reader of
// the bucket counts.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
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
}

// ObserveSince records the elapsed wall time since t0, in seconds.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Package trajectory defines the moving-point trajectory type used across
// the library: a finite time series of time-stamped planar positions,
// interpreted as a piecewise-linear path (the paper's IP ≅ seq (T × IL)).
//
// Time is in seconds (float64); positions are planar metres (see
// internal/geo). Timestamps must be strictly increasing.
package trajectory

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
)

// Sample is one time-stamped position: the paper's data point ⟨t, x, y⟩.
type Sample struct {
	T float64 // seconds
	X float64 // metres east
	Y float64 // metres north
}

// S is shorthand for Sample{t, x, y}.
func S(t, x, y float64) Sample { return Sample{T: t, X: x, Y: y} }

// Pos returns the spatial component of the sample.
func (s Sample) Pos() geo.Point { return geo.Point{X: s.X, Y: s.Y} }

// IsFinite reports whether all three components are finite.
func (s Sample) IsFinite() bool {
	return !math.IsNaN(s.T) && !math.IsInf(s.T, 0) && s.Pos().IsFinite()
}

// String implements fmt.Stringer.
func (s Sample) String() string {
	return fmt.Sprintf("⟨%.3f, %.3f, %.3f⟩", s.T, s.X, s.Y)
}

// Trajectory is a finite series of samples with strictly increasing
// timestamps, interpreted as a piecewise-linear path. The zero value is an
// empty trajectory.
//
// A Trajectory shares its backing array with the slice it was built from;
// treat trajectories as immutable once constructed and use Clone when a
// private copy is needed.
type Trajectory []Sample

// ErrUnsorted is reported by Validate for non-increasing timestamps.
var ErrUnsorted = errors.New("trajectory: timestamps not strictly increasing")

// ErrNotFinite is reported by Validate for NaN or infinite components.
var ErrNotFinite = errors.New("trajectory: non-finite sample component")

// New validates samples and returns them as a Trajectory.
// The samples slice is not copied.
func New(samples []Sample) (Trajectory, error) {
	p := Trajectory(samples)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustNew is New but panics on invalid input. Intended for tests and
// literals whose validity is guaranteed by construction.
func MustNew(samples []Sample) Trajectory {
	p, err := New(samples)
	if err != nil {
		panic(err)
	}
	return p
}

// Validate checks that all samples are finite and timestamps strictly
// increase.
func (p Trajectory) Validate() error {
	for i, s := range p {
		if !s.IsFinite() {
			return fmt.Errorf("%w: sample %d = %v", ErrNotFinite, i, s)
		}
		if i > 0 && s.T <= p[i-1].T {
			return fmt.Errorf("%w: sample %d (t=%v) after t=%v", ErrUnsorted, i, s.T, p[i-1].T)
		}
	}
	return nil
}

// Len returns the number of samples (the paper's len(p)).
func (p Trajectory) Len() int { return len(p) }

// Clone returns a deep copy.
func (p Trajectory) Clone() Trajectory {
	q := make(Trajectory, len(p))
	copy(q, p)
	return q
}

// StartTime returns the first timestamp. It panics on an empty trajectory.
func (p Trajectory) StartTime() float64 { return p[0].T }

// EndTime returns the last timestamp. It panics on an empty trajectory.
func (p Trajectory) EndTime() float64 { return p[len(p)-1].T }

// Duration returns the total time span in seconds; 0 for fewer than 2 samples.
func (p Trajectory) Duration() float64 {
	if len(p) < 2 {
		return 0
	}
	return p[len(p)-1].T - p[0].T
}

// Length returns the travelled path length in metres (sum of segment
// lengths); 0 for fewer than 2 samples.
func (p Trajectory) Length() float64 {
	var sum float64
	for i := 1; i < len(p); i++ {
		sum += p[i].Pos().Dist(p[i-1].Pos())
	}
	return sum
}

// Displacement returns the straight-line distance between the first and last
// positions; 0 for fewer than 2 samples.
func (p Trajectory) Displacement() float64 {
	if len(p) < 2 {
		return 0
	}
	return p[0].Pos().Dist(p[len(p)-1].Pos())
}

// AvgSpeed returns the mean travel speed in m/s (path length over duration);
// 0 when duration is 0.
func (p Trajectory) AvgSpeed() float64 {
	d := p.Duration()
	//lint:allow floatcmp degenerate-case guard: a validated trajectory has duration exactly 0 only when empty or single-sample
	if d == 0 {
		return 0
	}
	return p.Length() / d
}

// SegmentSpeed returns the derived speed of segment i (from sample i to
// sample i+1) in m/s, as used by the paper's speed-difference criterion.
// It panics if i is out of [0, Len()-2].
func (p Trajectory) SegmentSpeed(i int) float64 {
	a, b := p[i], p[i+1]
	return a.Pos().Dist(b.Pos()) / (b.T - a.T)
}

// Bounds returns the spatial bounding rectangle of all samples.
func (p Trajectory) Bounds() geo.Rect {
	r := geo.EmptyRect()
	for _, s := range p {
		r = r.Extend(s.Pos())
	}
	return r
}

// Segment returns segment i as a geo.Segment.
// It panics if i is out of [0, Len()-2].
func (p Trajectory) Segment(i int) geo.Segment {
	return geo.Seg(p[i].Pos(), p[i+1].Pos())
}

// SegmentIndexAt returns the index i of the segment containing time t, i.e.
// p[i].T ≤ t ≤ p[i+1].T, preferring the earliest such segment. The boolean is
// false if t is outside the trajectory's time span (NaN is outside every
// span) or the trajectory has fewer than 2 samples.
func (p Trajectory) SegmentIndexAt(t float64) (int, bool) {
	if len(p) < 2 || !(t >= p[0].T && t <= p[len(p)-1].T) {
		return 0, false
	}
	// First index with p[i].T ≥ t; the earliest containing segment ends there
	// (or starts there when t is the very first timestamp).
	i := sort.Search(len(p), func(i int) bool { return p[i].T >= t })
	if i == 0 {
		return 0, true
	}
	return i - 1, true
}

// LocAt returns the interpolated position at time t (the paper's loc(p, t)):
// piecewise-linear interpolation between the samples bracketing t. The
// boolean is false if t is outside [StartTime, EndTime] or the trajectory has
// fewer than 2 samples; a single-sample trajectory answers only its own
// timestamp.
func (p Trajectory) LocAt(t float64) (geo.Point, bool) {
	//lint:allow floatcmp a single-sample trajectory answers only its exact timestamp
	if len(p) == 1 && t == p[0].T {
		return p[0].Pos(), true
	}
	i, ok := p.SegmentIndexAt(t)
	if !ok {
		return geo.Point{}, false
	}
	a, b := p[i], p[i+1]
	f := (t - a.T) / (b.T - a.T)
	return a.Pos().Lerp(b.Pos(), f), true
}

// SampleAt is LocAt packaged as a Sample.
func (p Trajectory) SampleAt(t float64) (Sample, bool) {
	pt, ok := p.LocAt(t)
	if !ok {
		return Sample{}, false
	}
	return Sample{T: t, X: pt.X, Y: pt.Y}, true
}

// Sub returns the subseries p[k..m] inclusive (the paper's p[k, m], with
// 0-based indices). The result shares backing storage with p.
// It panics if the indices are out of range or k > m.
func (p Trajectory) Sub(k, m int) Trajectory {
	if k < 0 || m >= len(p) || k > m {
		panic(fmt.Sprintf("trajectory: Sub(%d, %d) out of range for len %d", k, m, len(p)))
	}
	return p[k : m+1]
}

// TimeSlice returns the portion of the trajectory within [t0, t1], with
// interpolated boundary samples when t0/t1 fall strictly inside a segment.
// The result is empty if the window misses the trajectory entirely.
func (p Trajectory) TimeSlice(t0, t1 float64) Trajectory {
	if len(p) == 0 || t1 < t0 || t1 < p[0].T || t0 > p[len(p)-1].T {
		return nil
	}
	var out Trajectory
	if s, ok := p.SampleAt(t0); ok {
		out = append(out, s)
	}
	for _, s := range p {
		if s.T > t0 && s.T < t1 {
			out = append(out, s)
		}
	}
	if s, ok := p.SampleAt(t1); ok && (len(out) == 0 || s.T > out[len(out)-1].T) {
		out = append(out, s)
	}
	return out
}

// IsVertexSubsetOf reports whether every sample of a appears (identically) in
// p, in order. Compression algorithms in this library only ever discard
// samples, so their output must satisfy a.IsVertexSubsetOf(original).
func (a Trajectory) IsVertexSubsetOf(p Trajectory) bool {
	j := 0
	for _, s := range a {
		for j < len(p) && p[j] != s {
			j++
		}
		if j == len(p) {
			return false
		}
		j++
	}
	return true
}

// Resample returns the trajectory re-sampled at fixed interval dt seconds
// starting at StartTime, always including the final sample. It returns nil
// for trajectories with fewer than 2 samples or non-positive dt.
func (p Trajectory) Resample(dt float64) Trajectory {
	if len(p) < 2 || dt <= 0 {
		return nil
	}
	var out Trajectory
	// Step by index so sample i sits at exactly t0 + i·dt: accumulating
	// t += dt drifts at Unix-epoch-scale timestamps and can shift or drop
	// the final samples.
	for i := 0; ; i++ {
		t := p[0].T + float64(i)*dt
		if t >= p[len(p)-1].T {
			break
		}
		s, _ := p.SampleAt(t)
		out = append(out, s)
	}
	last := p[len(p)-1]
	if out[len(out)-1].T < last.T {
		out = append(out, last)
	}
	return out
}

// SplitGaps partitions the trajectory at sampling gaps longer than maxGap
// seconds — GPS outages (tunnels, garages) where linear interpolation
// across the gap would fabricate movement. Each returned part has
// consecutive gaps ≤ maxGap; parts share no samples. Single-sample parts
// are retained (an isolated fix is still an observation).
func (p Trajectory) SplitGaps(maxGap float64) []Trajectory {
	if maxGap <= 0 {
		panic(fmt.Sprintf("trajectory: non-positive gap threshold %v", maxGap))
	}
	if len(p) == 0 {
		return nil
	}
	var out []Trajectory
	start := 0
	for i := 1; i < len(p); i++ {
		if p[i].T-p[i-1].T > maxGap {
			out = append(out, p[start:i])
			start = i
		}
	}
	return append(out, p[start:])
}

// Shift returns a copy with dt added to every timestamp and (dx, dy) added to
// every position.
func (p Trajectory) Shift(dt, dx, dy float64) Trajectory {
	q := make(Trajectory, len(p))
	for i, s := range p {
		q[i] = Sample{T: s.T + dt, X: s.X + dx, Y: s.Y + dy}
	}
	return q
}

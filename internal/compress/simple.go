package compress

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/trajectory"
)

// Uniform keeps every K-th data point (plus the final point), the simplest
// sequential baseline mentioned in §2 ("leaving in every ith data point",
// Tobler 1966). It ignores all relationships between neighbouring points.
type Uniform struct {
	// K is the sampling stride; K = 1 keeps everything. Must be ≥ 1.
	K int
}

// Name implements Algorithm.
func (u Uniform) Name() string { return fmt.Sprintf("Uniform(%d)", u.K) }

// Compress implements Algorithm.
func (u Uniform) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	if u.K < 1 {
		panic(fmt.Sprintf("compress: Uniform: stride %d < 1", u.K))
	}
	if out, ok := small(p); ok {
		return out
	}
	out := make(trajectory.Trajectory, 0, p.Len()/u.K+2)
	for i := 0; i < p.Len(); i += u.K {
		out = append(out, p[i])
	}
	if last := p[p.Len()-1]; out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}

// Radial discards a data point when its Euclidean distance to the last
// retained point is below a threshold — the "distance between two neighbour
// points" heuristic of §2. The final point is always retained.
type Radial struct {
	// Threshold is the minimum spacing in metres between retained points.
	Threshold float64
}

// Name implements Algorithm.
func (r Radial) Name() string { return fmt.Sprintf("Radial(%g)", r.Threshold) }

// Compress implements Algorithm.
func (r Radial) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	validateDistance("Radial", r.Threshold)
	if out, ok := small(p); ok {
		return out
	}
	out := trajectory.Trajectory{p[0]}
	for i := 1; i < p.Len()-1; i++ {
		if p[i].Pos().Dist(out[len(out)-1].Pos()) >= r.Threshold {
			out = append(out, p[i])
		}
	}
	return append(out, p[p.Len()-1])
}

// Angular implements Jenks' angular-change criterion (§2): a point is
// retained when the heading change through it exceeds AngleThreshold or when
// the accumulated distance from the last retained point exceeds
// DistThreshold. It addresses the over-representation of straight lines the
// paper attributes to the simple sequential methods.
type Angular struct {
	// AngleThreshold is the minimum turning angle in radians at a point for
	// it to be retained.
	AngleThreshold float64
	// DistThreshold bounds how much path length may be skipped between
	// retained points; +Inf (or 0, treated as +Inf) disables the bound.
	DistThreshold float64
}

// Name implements Algorithm.
func (a Angular) Name() string { return fmt.Sprintf("Angular(%g)", a.AngleThreshold) }

// Compress implements Algorithm.
func (a Angular) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	if a.AngleThreshold < 0 {
		panic(fmt.Sprintf("compress: Angular: negative angle threshold %v", a.AngleThreshold))
	}
	maxSkip := a.DistThreshold
	if maxSkip <= 0 {
		maxSkip = math.Inf(1)
	}
	if out, ok := small(p); ok {
		return out
	}
	out := trajectory.Trajectory{p[0]}
	skipped := 0.0
	for i := 1; i < p.Len()-1; i++ {
		turn := geo.AngleBetween(out[len(out)-1].Pos(), p[i].Pos(), p[i+1].Pos())
		skipped += p[i].Pos().Dist(p[i-1].Pos())
		if turn > a.AngleThreshold || skipped > maxSkip {
			out = append(out, p[i])
			skipped = 0
		}
	}
	return append(out, p[p.Len()-1])
}

// DeadReckoning is an online baseline from the moving-object literature that
// complements the paper's opening-window algorithms: from each retained
// point, the object's position is predicted by extrapolating the velocity of
// the first following segment; the next point whose actual position deviates
// from the prediction by more than Threshold is retained and prediction
// restarts there.
type DeadReckoning struct {
	// Threshold is the maximum allowed prediction deviation in metres.
	Threshold float64
}

// Name implements Algorithm.
func (d DeadReckoning) Name() string { return fmt.Sprintf("DeadReckoning(%g)", d.Threshold) }

// Compress implements Algorithm.
func (d DeadReckoning) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, d.NewEngine())
}

// NewEngine implements Online.
func (d DeadReckoning) NewEngine() Engine {
	validateDistance("DeadReckoning", d.Threshold)
	return &drEngine{threshold: d.Threshold}
}

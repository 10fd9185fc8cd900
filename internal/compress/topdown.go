package compress

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/sed"
	"repro/internal/trajectory"
)

// splitFunc examines the interior points of p[lo..hi] against the candidate
// segment p[lo]–p[hi] and returns the index of the worst violating point
// together with whether any point violates the halting condition.
type splitFunc func(p trajectory.Trajectory, lo, hi int) (worst int, violates bool)

// topDown runs the recursive top-down scheme shared by DP, TD-TR and TD-SP:
// repeatedly split at the worst offending point until every subseries
// satisfies the halting condition, then keep exactly the split points plus
// the two endpoints. Recursion is replaced by an explicit stack so deep,
// pathological inputs cannot overflow the goroutine stack.
func topDown(p trajectory.Trajectory, split splitFunc) trajectory.Trajectory {
	if out, ok := small(p); ok {
		return out
	}
	keep := make([]bool, p.Len())
	keep[0], keep[p.Len()-1] = true, true

	type span struct{ lo, hi int }
	stack := []span{{0, p.Len() - 1}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo < 2 {
			continue
		}
		worst, violates := split(p, s.lo, s.hi)
		if !violates {
			continue
		}
		keep[worst] = true
		stack = append(stack, span{s.lo, worst}, span{worst, s.hi})
	}

	out := make(trajectory.Trajectory, 0, 16)
	for i, k := range keep {
		if k {
			out = append(out, p[i])
		}
	}
	return out
}

// DouglasPeucker is the classic top-down line-generalization algorithm
// (Douglas & Peucker 1973) — the paper's NDP baseline. The data series is
// recursively cut at the point with the greatest perpendicular distance to
// the anchor–float segment while that distance exceeds Threshold.
type DouglasPeucker struct {
	// Threshold is the perpendicular distance tolerance in metres.
	Threshold float64
}

// Name implements Algorithm.
func (d DouglasPeucker) Name() string { return "NDP" }

// Compress implements Algorithm. Time complexity is O(N²) in the worst case,
// matching the original formulation.
func (d DouglasPeucker) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	validateDistance("DouglasPeucker", d.Threshold)
	return topDown(p, func(p trajectory.Trajectory, lo, hi int) (int, bool) {
		line := segBetween(p, lo, hi)
		worst, worstDist := -1, 0.0
		for i := lo + 1; i < hi; i++ {
			if dd := line.PerpDist(p[i].Pos()); dd > worstDist {
				worst, worstDist = i, dd
			}
		}
		return worst, worstDist > d.Threshold
	})
}

// TDTR is the paper's top-down time-ratio algorithm (§3.2): Douglas-Peucker
// with the perpendicular distance replaced by the synchronized (time-ratio)
// distance, so that the temporal dimension participates in the discard
// decision.
type TDTR struct {
	// Threshold is the synchronized distance tolerance in metres.
	Threshold float64
}

// Name implements Algorithm.
func (d TDTR) Name() string { return "TD-TR" }

// Compress implements Algorithm.
func (d TDTR) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	validateDistance("TDTR", d.Threshold)
	return topDown(p, func(p trajectory.Trajectory, lo, hi int) (int, bool) {
		worst, worstDist := -1, 0.0
		for i := lo + 1; i < hi; i++ {
			if dd := sed.Distance(p[i], p[lo], p[hi]); dd > worstDist {
				worst, worstDist = i, dd
			}
		}
		return worst, worstDist > d.Threshold
	})
}

// TDSP is the top-down member of the paper's spatiotemporal class (§3.3):
// it combines the synchronized distance criterion of TDTR with the
// speed-difference criterion of OPWSP. The paper applies the combined
// criteria top-down without giving pseudocode; here a point violates when
// its synchronized distance exceeds DistThreshold or the derived-speed jump
// across it exceeds SpeedThreshold, and the series is cut at the point with
// the largest normalized violation (distance/DistThreshold or
// speed-difference/SpeedThreshold, whichever is greater).
type TDSP struct {
	// DistThreshold is the synchronized distance tolerance in metres.
	DistThreshold float64
	// SpeedThreshold is the maximum allowed difference between the derived
	// speeds of the segments meeting at a point, in m/s.
	SpeedThreshold float64
}

// Name implements Algorithm.
func (d TDSP) Name() string { return fmt.Sprintf("TD-SP(%gm/s)", d.SpeedThreshold) }

// Compress implements Algorithm.
func (d TDSP) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	validateDistance("TDSP", d.DistThreshold)
	if d.SpeedThreshold <= 0 {
		panic(fmt.Sprintf("compress: TDSP: non-positive speed threshold %v", d.SpeedThreshold))
	}
	return topDown(p, func(p trajectory.Trajectory, lo, hi int) (int, bool) {
		worst, worstScore := -1, 0.0
		for i := lo + 1; i < hi; i++ {
			score := sed.Distance(p[i], p[lo], p[hi]) / d.DistThreshold
			dv := speedJump(p, i)
			if s := dv / d.SpeedThreshold; s > score {
				score = s
			}
			if score > worstScore {
				worst, worstScore = i, score
			}
		}
		return worst, worstScore > 1
	})
}

// segBetween returns the straight segment from vertex lo to vertex hi.
func segBetween(p trajectory.Trajectory, lo, hi int) geo.Segment {
	return geo.Seg(p[lo].Pos(), p[hi].Pos())
}

// speedJump returns |v_i − v_{i−1}|: the absolute difference of the derived
// speeds of the segments before and after point i (paper §3.3).
func speedJump(p trajectory.Trajectory, i int) float64 {
	prev := p.SegmentSpeed(i - 1)
	next := p.SegmentSpeed(i)
	if next > prev {
		return next - prev
	}
	return prev - next
}

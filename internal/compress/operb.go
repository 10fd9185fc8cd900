package compress

import (
	"math"

	"repro/internal/trajectory"
)

// OPERB is the One-Pass Error Bounded simplification of Lin et al.
// (arXiv:1702.05597): a local-distance-checking algorithm that processes
// each point exactly once in O(1) memory, guaranteeing that every discarded
// point lies within Threshold (perpendicular Euclidean distance) of the
// retained segment that covers it.
//
// Where the opening-window family re-scans the buffered window on every
// arrival (O(window) per point), OPERB maintains only a feasible direction
// interval for the segment leaving the current anchor: a point at distance
// l > ε from the anchor constrains the segment direction to an arc of
// half-width asin(ε/l) around its own bearing. A candidate endpoint is
// accepted while its bearing stays inside the running arc intersection and
// it is at least as far from the anchor as every constrained point (so all
// their projections fall on the segment). The per-point cost is one sqrt,
// one atan2 and one asin — no window, no re-scan.
type OPERB struct {
	// Threshold is the error bound ε in metres.
	Threshold float64
}

// Name implements Algorithm.
func (a OPERB) Name() string { return "OPERB" }

// Compress implements Algorithm. The result is a vertex subsequence of p
// retaining both endpoints, and every discarded sample is within Threshold
// of the output segment covering it.
func (a OPERB) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, a.NewEngine())
}

// NewEngine implements Online.
func (a OPERB) NewEngine() Engine { return newOPERBEngine(a.Threshold) }

// operbEngine is the Engine of OPERB. State is O(1): the anchor, one
// tentative endpoint, and the feasible direction interval.
type operbEngine struct {
	eps float64

	started bool
	anchor  trajectory.Sample
	hasLast bool
	last    trajectory.Sample

	// Feasible direction interval [lo, hi] for the segment leaving the
	// anchor, in unwrapped radians (each new bearing is renormalized to
	// within π of the interval midpoint, so the interval never straddles a
	// branch cut). lMax is the largest anchor distance over the
	// constraint-bearing points seen this window: requiring the endpoint to
	// be at least that far keeps every discarded point's projection on the
	// segment, which upgrades the line-distance bound to a segment-distance
	// bound.
	hasArc bool
	lo, hi float64
	lMax   float64

	out []trajectory.Sample
}

// newOPERBEngine returns a reset engine with error bound eps (metres).
func newOPERBEngine(eps float64) *operbEngine {
	validateDistance("OPERB", eps)
	return &operbEngine{eps: eps}
}

// Pending reports how many buffered samples await a retention decision
// (0 or 1 — the engine's O(1) memory guarantee).
func (e *operbEngine) Pending() int {
	if e.hasLast {
		return 1
	}
	return 0
}

// Push feeds one sample and returns the samples whose retention became
// definite. The returned slice is only valid until the next call. Callers
// must feed strictly increasing timestamps (internal/stream enforces this);
// OPERB itself only uses positions.
func (e *operbEngine) Push(s trajectory.Sample) []trajectory.Sample {
	e.out = e.out[:0]
	if !e.started {
		e.started = true
		e.anchor = s
		e.out = append(e.out, s)
		return e.out
	}
	if !e.fit(s) {
		// Cut: the tentative endpoint becomes definite, the window
		// re-anchors there, and s opens the new window (a fit against an
		// unconstrained anchor always succeeds, so progress is guaranteed).
		e.out = append(e.out, e.last)
		e.anchor = e.last
		e.hasArc = false
		e.lMax = 0
		e.fit(s)
	}
	return e.out
}

// fit tries to accept s as the tentative endpoint of the current window,
// updating the direction interval on success.
func (e *operbEngine) fit(s trajectory.Sample) bool {
	dx, dy := s.X-e.anchor.X, s.Y-e.anchor.Y
	l := math.Hypot(dx, dy)
	if l <= e.eps {
		// s stays within ε of the anchor itself, hence within ε of any
		// segment leaving the anchor: it never constrains the direction.
		// But it can only BE the endpoint while no farther point has been
		// discarded (a short segment cannot cover a far point).
		if e.hasArc {
			return false
		}
		e.last, e.hasLast = s, true
		return true
	}
	theta := math.Atan2(dy, dx)
	half := math.Asin(math.Min(1, e.eps/l))
	if e.hasArc {
		mid := (e.lo + e.hi) / 2
		theta -= 2 * math.Pi * math.Round((theta-mid)/(2*math.Pi))
		if theta < e.lo || theta > e.hi || l < e.lMax {
			return false
		}
	} else {
		e.hasArc = true
		e.lo, e.hi = math.Inf(-1), math.Inf(1)
	}
	if lo := theta - half; lo > e.lo {
		e.lo = lo
	}
	if hi := theta + half; hi < e.hi {
		e.hi = hi
	}
	e.lMax = l
	e.last, e.hasLast = s, true
	return true
}

// Flush terminates the stream, emitting the pending endpoint (the final
// input sample, when any input followed the last emission) and resetting
// the engine for reuse.
func (e *operbEngine) Flush() []trajectory.Sample {
	e.out = e.out[:0]
	if e.hasLast {
		e.out = append(e.out, e.last)
	}
	e.started, e.hasLast, e.hasArc = false, false, false
	e.lMax = 0
	return e.out
}

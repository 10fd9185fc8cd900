package compress

import (
	"math"

	"repro/internal/geo"
	"repro/internal/trajectory"
)

// CISED-S and CISED-W are the one-pass synchronous-Euclidean-distance
// simplifications of Lin et al. (arXiv:1801.05360). Both process each point
// exactly once with O(1) memory, guaranteeing SED ≤ Threshold for every
// discarded point against the output segment covering it — the same error
// metric as the paper's time-ratio class (internal/sed), but without the
// opening-window re-scans.
//
// The trick is to work in velocity space: for the current anchor (Pₐ, tₐ),
// a later point (Pᵢ, tᵢ) is within SED ε of the segment leaving the anchor
// with velocity v exactly when v lies in the disk of radius ε/(tᵢ−tₐ)
// around (Pᵢ−Pₐ)/(tᵢ−tₐ). Each disk is under-approximated by an inscribed
// regular 16-gon (conservative), and the feasible-velocity region — the
// running intersection of those polygons — is maintained as a convex
// polygon by Sutherland–Hodgman half-plane clipping.

// cisedEdges is the inscribed-polygon edge count m. The paper studies
// m ∈ [8, 24]; 16 loses under 2% of the disk radius (cos π/16 ≈ 0.981)
// while keeping the clipping cheap.
const cisedEdges = 16

// cisedUnit caches the unit-circle vertices of the inscribed polygon.
var cisedUnit = func() [cisedEdges]geo.Point {
	var u [cisedEdges]geo.Point
	for i := range u {
		a := 2 * math.Pi * (float64(i) + 0.5) / cisedEdges
		u[i] = geo.Pt(math.Cos(a), math.Sin(a))
	}
	return u
}()

// CISEDS is the strong (subsequence) variant: output points are always
// input samples, so it is a drop-in replacement for the opening-window
// algorithms with a hard per-point cost independent of the window length.
type CISEDS struct {
	// Threshold is the SED error bound ε in metres.
	Threshold float64
}

// Name implements Algorithm.
func (a CISEDS) Name() string { return "CISED-S" }

// Compress implements Algorithm. Input timestamps must strictly increase
// (trajectory.Validate), as everywhere in this package.
func (a CISEDS) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, a.NewEngine())
}

// NewEngine implements Online.
func (a CISEDS) NewEngine() Engine { return newCISEDEngine(a.Threshold, false) }

// CISEDW is the weak variant: instead of retaining an input sample on a
// cut, it closes each window with a point synthesized from the feasible
// velocity region, at the timestamp of the newest covered input sample.
// Synthesized joints let one window span more points, so CISED-W compresses
// harder than CISED-S at the same ε — at the price of no longer being a
// vertex subsequence (it reports this via WeakSimplification).
type CISEDW struct {
	// Threshold is the SED error bound ε in metres.
	Threshold float64
}

// Name implements Algorithm.
func (a CISEDW) Name() string { return "CISED-W" }

// WeakSimplification marks the output as synthesized (see WeakSimplifier).
func (a CISEDW) WeakSimplification() bool { return true }

// Compress implements Algorithm. All output timestamps are input
// timestamps; only positions are synthesized.
func (a CISEDW) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, a.NewEngine())
}

// NewEngine implements Online.
func (a CISEDW) NewEngine() Engine { return newCISEDEngine(a.Threshold, true) }

// cisedEngine is the Engine of CISED-S and CISED-W. State is O(1) in the
// input: the anchor, at most one pending sample, and the convex
// feasible-velocity polygon.
type cisedEngine struct {
	eps  float64
	weak bool

	started bool
	anchor  trajectory.Sample
	open    bool // a window with at least one covered point is in progress

	// Strong: the tentative endpoint (always an input sample).
	last trajectory.Sample
	// Weak: the timestamp of the newest covered input sample — where the
	// synthesized joint will be placed when the window closes.
	lastT float64

	region  []geo.Point // feasible-velocity polygon, convex CCW
	scratch []geo.Point // clip ping-pong buffer
	poly    [cisedEdges]geo.Point
	out     []trajectory.Sample
}

// newCISEDEngine returns a reset engine with SED bound eps (metres); weak
// selects CISED-W (synthesized joints) over CISED-S (subsequence).
func newCISEDEngine(eps float64, weak bool) *cisedEngine {
	validateDistance("CISED", eps)
	return &cisedEngine{eps: eps, weak: weak}
}

// Pending reports how many buffered samples await a retention decision
// (0 or 1 — the engine's O(1) memory guarantee).
func (e *cisedEngine) Pending() int {
	if e.open {
		return 1
	}
	return 0
}

// Push feeds one sample and returns the samples whose retention became
// definite. The returned slice is only valid until the next call. Callers
// must feed strictly increasing timestamps (the stream wrapper enforces
// this; the velocity mapping divides by the time gap).
func (e *cisedEngine) Push(s trajectory.Sample) []trajectory.Sample {
	e.out = e.out[:0]
	if !e.started {
		e.started = true
		e.anchor = s
		e.out = append(e.out, s)
		return e.out
	}
	if e.weak {
		e.pushWeak(s)
	} else {
		e.pushStrong(s)
	}
	return e.out
}

func (e *cisedEngine) pushStrong(s trajectory.Sample) {
	w, r := e.velocity(s)
	if !e.open {
		e.resetRegion(w, r)
		e.last = s
		return
	}
	if len(e.region) > 0 && insideConvex(w, e.region) {
		// s is reachable within ε of every covered point: it becomes the
		// new tentative endpoint and adds its own disk constraint (the
		// intersection stays non-empty — w lies in both operands).
		e.clipRegion(e.diskPoly(w, r))
		e.last = s
		return
	}
	// Cut: retain the previous endpoint, re-anchor there, reopen with s.
	e.out = append(e.out, e.last)
	e.anchor = e.last
	w, r = e.velocity(s)
	e.resetRegion(w, r)
	e.last = s
}

func (e *cisedEngine) pushWeak(s trajectory.Sample) {
	w, r := e.velocity(s)
	if !e.open {
		e.resetRegion(w, r)
		e.lastT = s.T
		return
	}
	rep := e.representative()
	e.clipRegion(e.diskPoly(w, r))
	if len(e.region) > 0 {
		e.lastT = s.T
		return
	}
	// The region collapsed: close the window with a joint synthesized from
	// the pre-clip region (feasible for every covered point), re-anchor at
	// the joint, and reopen with s. s.T > lastT keeps timestamps strict.
	q := e.synth(rep)
	e.out = append(e.out, q)
	e.anchor = q
	w, r = e.velocity(s)
	e.resetRegion(w, r)
	e.lastT = s.T
}

// Flush terminates the stream, closing any open window (the strong engine
// emits the pending input sample; the weak engine synthesizes the closing
// joint at the newest covered timestamp) and resetting for reuse.
func (e *cisedEngine) Flush() []trajectory.Sample {
	e.out = e.out[:0]
	if e.open {
		if e.weak {
			e.out = append(e.out, e.synth(e.representative()))
		} else {
			e.out = append(e.out, e.last)
		}
	}
	e.started, e.open = false, false
	e.region = e.region[:0]
	return e.out
}

// velocity maps s into velocity space relative to the anchor: the disk
// centre w and radius r such that SED(s, anchor→endpoint) ≤ ε exactly when
// the endpoint velocity lies within r of w. The radius is floored so the
// inscribed polygon stays well-conditioned when ε/(tᵢ−tₐ) underflows the
// coordinate ulp (stationary ε=0 or huge time gaps); the floor relaxes the
// bound by at most ~1e-9·(|Pᵢ−Pₐ| + tᵢ−tₐ) metres — sub-millimetre at
// continental coordinate scales.
func (e *cisedEngine) velocity(s trajectory.Sample) (geo.Point, float64) {
	dt := s.T - e.anchor.T
	w := geo.Pt((s.X-e.anchor.X)/dt, (s.Y-e.anchor.Y)/dt)
	r := e.eps / dt
	if floor := (w.Norm() + 1) * 1e-9; r < floor {
		r = floor
	}
	return w, r
}

// diskPoly writes the inscribed regular polygon of the disk into e.poly.
// Vertices lie on the circle, so the polygon under-approximates the disk
// and the running intersection is conservative.
func (e *cisedEngine) diskPoly(w geo.Point, r float64) []geo.Point {
	for i, u := range cisedUnit {
		e.poly[i] = geo.Pt(w.X+r*u.X, w.Y+r*u.Y)
	}
	return e.poly[:]
}

func (e *cisedEngine) resetRegion(w geo.Point, r float64) {
	e.region = append(e.region[:0], e.diskPoly(w, r)...)
	e.open = true
}

// representative returns a point inside the (non-empty convex) region: the
// vertex centroid.
func (e *cisedEngine) representative() geo.Point {
	var cx, cy float64
	for _, p := range e.region {
		cx += p.X
		cy += p.Y
	}
	n := float64(len(e.region))
	return geo.Pt(cx/n, cy/n)
}

// synth materializes the velocity v as the window-closing sample at the
// newest covered timestamp.
func (e *cisedEngine) synth(v geo.Point) trajectory.Sample {
	dt := e.lastT - e.anchor.T
	return trajectory.S(e.lastT, e.anchor.X+v.X*dt, e.anchor.Y+v.Y*dt)
}

// clipRegion intersects e.region with the convex CCW polygon poly in place
// (Sutherland–Hodgman half-plane clipping). The result may be empty.
func (e *cisedEngine) clipRegion(poly []geo.Point) {
	cur, next := e.region, e.scratch
	for i := 0; i < len(poly) && len(cur) > 0; i++ {
		a, b := poly[i], poly[(i+1)%len(poly)]
		ex, ey := b.X-a.X, b.Y-a.Y
		next = next[:0]
		for j := range cur {
			p, q := cur[j], cur[(j+1)%len(cur)]
			ps := ex*(p.Y-a.Y) - ey*(p.X-a.X)
			qs := ex*(q.Y-a.Y) - ey*(q.X-a.X)
			if ps >= 0 {
				next = append(next, p)
			}
			if (ps < 0) != (qs < 0) {
				f := ps / (ps - qs)
				next = append(next, geo.Pt(p.X+f*(q.X-p.X), p.Y+f*(q.Y-p.Y)))
			}
		}
		cur, next = next, cur
	}
	e.region, e.scratch = cur, next
}

// insideConvex reports whether p lies inside (or on the boundary of) the
// convex CCW polygon.
func insideConvex(p geo.Point, poly []geo.Point) bool {
	for i := range poly {
		a, b := poly[i], poly[(i+1)%len(poly)]
		if (b.X-a.X)*(p.Y-a.Y)-(b.Y-a.Y)*(p.X-a.X) < 0 {
			return false
		}
	}
	return true
}

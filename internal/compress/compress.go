// Package compress implements the trajectory compression algorithms studied
// and proposed by the paper, all as pure batch functions over immutable
// trajectories. It is also the only place that knows which algorithms exist
// and how a spec string names one (the table behind Parse), and what each
// incremental algorithm does per point (the Engine of every Online
// algorithm, which internal/stream runs over live position streams):
//
//   - Simple sequential baselines (§2): Uniform (every i-th point, Tobler),
//     Radial (Euclidean neighbour elimination) and Angular (Jenks' angular
//     change criterion).
//   - Line-generalization algorithms (§2.1–2.2): DouglasPeucker (the paper's
//     NDP) and the opening-window algorithms NOPW and BOPW.
//   - The paper's time-ratio class (§3.2): TDTR and OPWTR, which replace the
//     perpendicular distance with the synchronized (time-ratio) distance of
//     internal/sed.
//   - The paper's spatiotemporal class (§3.3): OPWSP (the pseudocode
//     algorithm SPT) and TDSP, which add a speed-difference threshold.
//   - DeadReckoning, an online baseline from the follow-on literature.
//   - The one-pass error-bounded family from the follow-on literature:
//     OPERB (perpendicular distance, arXiv:1702.05597) and CISED-S/CISED-W
//     (synchronous Euclidean distance, arXiv:1801.05360), which process
//     each point exactly once with O(1) memory.
//
// With a single exception, every algorithm returns a subsequence of the
// input samples: points are only ever discarded, never moved or invented,
// exactly as the paper's error derivation assumes ("we never invented new
// data points, let alone time stamps", §4.2). The exception is CISED-W,
// a weak simplification that synthesizes window-closing joints (at input
// timestamps, never inventing time stamps); such algorithms advertise
// themselves via the WeakSimplifier interface so callers that rely on the
// subsequence property can detect them with IsWeak.
package compress

import (
	"fmt"

	"repro/internal/trajectory"
)

// Algorithm is a batch trajectory compressor.
type Algorithm interface {
	// Name returns a short identifier such as "TD-TR" or "OPW-SP(5)".
	Name() string
	// Compress returns a compressed copy of p. The result is always a
	// subsequence of p's samples, retains p's first sample, and is never
	// longer than p. Implementations must not modify p.
	Compress(p trajectory.Trajectory) trajectory.Trajectory
}

// WeakSimplifier is implemented by algorithms whose output is not a vertex
// subsequence of the input: weak simplifications may synthesize new points
// (always at input timestamps). Everything else about the Algorithm
// contract — first sample retained, never longer than the input, input
// never modified — still holds.
type WeakSimplifier interface {
	// WeakSimplification reports whether the algorithm may emit
	// synthesized points.
	WeakSimplification() bool
}

// IsWeak reports whether a is a weak simplification (see WeakSimplifier).
func IsWeak(a Algorithm) bool {
	w, ok := a.(WeakSimplifier)
	return ok && w.WeakSimplification()
}

// Rate returns the compression rate achieved by reducing a trajectory of
// origLen points to compLen points, as a percentage of points removed —
// the quantity on the paper's "Compression (percent)" axes.
// It returns 0 for the degenerate empty input (origLen 0), so the result
// is always finite.
func Rate(origLen, compLen int) float64 {
	if origLen == 0 {
		return 0
	}
	return 100 * float64(origLen-compLen) / float64(origLen)
}

// small returns p unchanged when it is too short to compress (fewer than 3
// samples); ok reports whether that shortcut applies.
func small(p trajectory.Trajectory) (trajectory.Trajectory, bool) {
	if p.Len() < 3 {
		return p, true
	}
	return nil, false
}

func validateDistance(name string, threshold float64) {
	if threshold < 0 {
		panic(fmt.Sprintf("compress: %s: negative distance threshold %v", name, threshold))
	}
}

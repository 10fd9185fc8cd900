package compress

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/sed"
	"repro/internal/trajectory"
)

// BreakStrategy selects where an opening-window algorithm cuts a segment
// when the halting condition is violated (paper §2.2).
type BreakStrategy int

const (
	// BreakAtViolation cuts at the data point causing the threshold excess —
	// the paper's "Normal Opening Window" strategy (NOPW) and the strategy
	// of the SPT pseudocode.
	BreakAtViolation BreakStrategy = iota
	// BreakBefore cuts at the data point just before the float when the
	// excess occurs — the paper's "Before Opening Window" strategy (BOPW).
	// It yields higher compression at the cost of (much) higher error.
	BreakBefore
)

// String implements fmt.Stringer.
func (b BreakStrategy) String() string {
	switch b {
	case BreakAtViolation:
		return "at-violation"
	case BreakBefore:
		return "before"
	default:
		return fmt.Sprintf("BreakStrategy(%d)", int(b))
	}
}

// NOPW is the Normal Opening Window algorithm (§2.2): perpendicular-distance
// halting condition, cutting at the data point causing the threshold excess.
type NOPW struct {
	// Threshold is the perpendicular distance tolerance in metres.
	Threshold float64
	// DropTail reproduces the raw tail-losing behaviour of Fig. 2 when set;
	// by default the final point is retained.
	DropTail bool
}

// Name implements Algorithm.
func (a NOPW) Name() string { return "NOPW" }

// Compress implements Algorithm.
func (a NOPW) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, a.NewEngine())
}

// NewEngine implements Online.
func (a NOPW) NewEngine() Engine {
	return newOPWEngine("NOPW", a.Threshold, BreakAtViolation, a.DropTail,
		func(w []trajectory.Sample, i int) bool {
			return geo.Seg(w[0].Pos(), w[len(w)-1].Pos()).PerpDist(w[i].Pos()) > a.Threshold
		})
}

// BOPW is the Before Opening Window algorithm (§2.2): like NOPW but cutting
// at the data point just before the float when the excess occurs.
type BOPW struct {
	// Threshold is the perpendicular distance tolerance in metres.
	Threshold float64
	// DropTail reproduces the raw tail-losing behaviour of Fig. 3 when set.
	DropTail bool
}

// Name implements Algorithm.
func (a BOPW) Name() string { return "BOPW" }

// Compress implements Algorithm.
func (a BOPW) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, a.NewEngine())
}

// NewEngine implements Online. The halting condition repeats NOPW's literal
// rather than sharing a constructor: a closure returned through an inlined
// helper is compiled without inlining its own calls, which cost the scan
// 50 % in BenchmarkAlgorithms.
func (a BOPW) NewEngine() Engine {
	return newOPWEngine("BOPW", a.Threshold, BreakBefore, a.DropTail,
		func(w []trajectory.Sample, i int) bool {
			return geo.Seg(w[0].Pos(), w[len(w)-1].Pos()).PerpDist(w[i].Pos()) > a.Threshold
		})
}

// OPWTR is the paper's opening-window time-ratio algorithm (§3.2): the
// opening-window scheme with the synchronized (time-ratio) distance as the
// halting condition.
type OPWTR struct {
	// Threshold is the synchronized distance tolerance in metres.
	Threshold float64
	// Strategy selects the break point; the paper uses BreakAtViolation.
	// BreakBefore is provided for the ablation of §5 of DESIGN.md.
	Strategy BreakStrategy
	// DropTail disables the keep-last countermeasure when set.
	DropTail bool
}

// Name implements Algorithm.
func (a OPWTR) Name() string { return "OPW-TR" }

// Compress implements Algorithm.
func (a OPWTR) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, a.NewEngine())
}

// NewEngine implements Online.
func (a OPWTR) NewEngine() Engine {
	return newOPWEngine("OPWTR", a.Threshold, a.Strategy, a.DropTail,
		func(w []trajectory.Sample, i int) bool {
			return sed.Distance(w[i], w[0], w[len(w)-1]) > a.Threshold
		})
}

// OPWSP is the paper's spatiotemporal opening-window algorithm — the
// pseudocode procedure SPT of §3.3. A point is retained when its
// synchronized distance to the candidate segment exceeds DistThreshold or
// when the derived speeds of its adjacent segments differ by more than
// SpeedThreshold.
type OPWSP struct {
	// DistThreshold is the synchronized distance tolerance in metres
	// (max_dist_error in the pseudocode).
	DistThreshold float64
	// SpeedThreshold is the speed-difference tolerance in m/s
	// (max_speed_error in the pseudocode).
	SpeedThreshold float64
	// DropTail disables the keep-last countermeasure when set.
	DropTail bool
}

// Name implements Algorithm.
func (a OPWSP) Name() string { return fmt.Sprintf("OPW-SP(%gm/s)", a.SpeedThreshold) }

// Compress implements Algorithm.
func (a OPWSP) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, a.NewEngine())
}

// NewEngine implements Online.
func (a OPWSP) NewEngine() Engine {
	if a.SpeedThreshold <= 0 {
		panic(fmt.Sprintf("compress: OPWSP: non-positive speed threshold %v", a.SpeedThreshold))
	}
	return newOPWEngine("OPWSP", a.DistThreshold, BreakAtViolation, a.DropTail,
		func(w []trajectory.Sample, i int) bool {
			if sed.Distance(w[i], w[0], w[len(w)-1]) > a.DistThreshold {
				return true
			}
			// The pseudocode's ‖v_i − v_{i−1}‖ check uses the derived speeds
			// around point i; i+1 ≤ float, so the lookup stays inside w.
			return speedJump(w, i) > a.SpeedThreshold
		})
}

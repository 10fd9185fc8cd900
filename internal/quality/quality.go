// Package quality evaluates compression results: compression rate and the
// error notions of the paper's §4.1–4.2.
//
// Two families of error are provided:
//
//   - Perpendicular-distance error (Fig. 5a): the classic line-generalization
//     notion, measured either at the original data points or as a
//     sampling-rate-insensitive time-weighted mean of chord lengths.
//   - Time-synchronized error (Fig. 5b / §4.2): the paper's proposed α(p, a),
//     delegated to internal/sed.
package quality

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/sed"
	"repro/internal/trajectory"
)

// Report bundles the evaluation of one compression run.
type Report struct {
	Algorithm      string
	OriginalLen    int
	CompressedLen  int
	CompressionPct float64 // % of points removed

	SyncAvgError float64 // α(p, a), metres
	SyncMaxError float64 // max synchronized distance, metres

	PerpAvgError float64 // mean perpendicular distance of original points
	PerpMaxError float64 // max perpendicular distance of original points
}

// String renders the report as a single human-readable line.
func (r Report) String() string {
	return fmt.Sprintf("%-16s %4d → %4d points (%5.1f%%)  sync avg %7.2f m max %7.2f m  perp avg %7.2f m max %7.2f m",
		r.Algorithm, r.OriginalLen, r.CompressedLen, r.CompressionPct,
		r.SyncAvgError, r.SyncMaxError, r.PerpAvgError, r.PerpMaxError)
}

// Evaluate measures approximation a of original p under every metric.
// name labels the report (typically Algorithm.Name()).
func Evaluate(name string, p, a trajectory.Trajectory) (Report, error) {
	r := Report{
		Algorithm:      name,
		OriginalLen:    p.Len(),
		CompressedLen:  a.Len(),
		CompressionPct: 100 * float64(p.Len()-a.Len()) / float64(max(1, p.Len())),
	}
	var err error
	if r.SyncAvgError, err = sed.AvgError(p, a); err != nil {
		return Report{}, fmt.Errorf("quality: sync avg error: %w", err)
	}
	if r.SyncMaxError, err = sed.MaxError(p, a); err != nil {
		return Report{}, fmt.Errorf("quality: sync max error: %w", err)
	}
	r.PerpAvgError, r.PerpMaxError, err = PerpError(p, a)
	if err != nil {
		return Report{}, err
	}
	return r, nil
}

// PerpError computes the perpendicular-distance error notion of plain line
// generalization (§4.1): for every original data point, the distance to the
// nearest point of the approximation segment covering its index range. It
// returns the mean over interior points and the maximum.
//
// The approximation a must be a vertex subsequence of p that starts at p's
// first sample; otherwise an error is returned.
func PerpError(p, a trajectory.Trajectory) (avg, maxErr float64, err error) {
	if p.Len() < 2 || a.Len() < 2 {
		return 0, 0, fmt.Errorf("quality: need at least 2 samples in both trajectories (have %d and %d)", p.Len(), a.Len())
	}
	var sum float64
	var count int
	ai := 0
	for k := 0; k+1 < a.Len(); k++ {
		for ai < p.Len() && p[ai] != a[k] {
			ai++
		}
		if ai == p.Len() {
			return 0, 0, fmt.Errorf("quality: approximation vertex %v not found in original", a[k])
		}
		lo := ai
		hi := lo + 1
		for hi < p.Len() && p[hi] != a[k+1] {
			hi++
		}
		if hi == p.Len() {
			return 0, 0, fmt.Errorf("quality: approximation vertex %v not found in original", a[k+1])
		}
		seg := geo.Seg(p[lo].Pos(), p[hi].Pos())
		for i := lo + 1; i < hi; i++ {
			d := seg.Dist(p[i].Pos())
			sum += d
			if d > maxErr {
				maxErr = d
			}
			count++
		}
	}
	if count == 0 {
		return 0, 0, nil
	}
	return sum / float64(count), maxErr, nil
}

// PerpAreaError computes the sampling-insensitive variant of the
// perpendicular error (§4.1, Fig. 5a): the original trajectory is traversed
// at progressively finer resolution and the distance from each interpolated
// original position to the covering approximation segment is averaged with
// time weights. As the paper notes, in the limit this equals a sum of
// weighted areas between original and approximation. dt sets the sampling
// interval in seconds; it must be positive.
func PerpAreaError(p, a trajectory.Trajectory, dt float64) (float64, error) {
	if dt <= 0 {
		return 0, fmt.Errorf("quality: non-positive sampling interval %v", dt)
	}
	if p.Len() < 2 || a.Len() < 2 {
		return 0, fmt.Errorf("quality: need at least 2 samples in both trajectories")
	}
	// Associate each fine sample of p with the approximation segment active
	// at its timestamp; distance is to the segment (not the infinite line),
	// which keeps the measure finite at strong corners.
	var sum float64
	var n int
	// Step by index, not by accumulating t += dt: at Unix-epoch-scale
	// timestamps the accumulated rounding error shifts or drops the final
	// instants of the sweep.
	ts, te := p.StartTime(), p.EndTime()
	for i := 0; ; i++ {
		t := ts + float64(i)*dt
		if t > te {
			break
		}
		pp, ok := p.LocAt(t)
		if !ok {
			continue
		}
		i, ok := a.SegmentIndexAt(t)
		if !ok {
			continue
		}
		sum += a.Segment(i).Dist(pp)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("quality: no overlapping samples at dt=%v", dt)
	}
	return sum / float64(n), nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

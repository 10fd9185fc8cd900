package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/compress"
	"repro/internal/mapmatch"
	"repro/internal/roadnet"
	"repro/internal/sed"
	"repro/internal/trajectory"
)

// Ablation experiments for the design choices called out in DESIGN.md §5.
// These go beyond the paper's figures: they isolate individual mechanisms
// of the algorithms on the same dataset and metrics.

// AblationTailDrop quantifies the paper's §2.2 observation that
// opening-window algorithms "may lose the last few data points": OPW-TR
// with the keep-last countermeasure (the library default) against the raw
// tail-dropping behaviour.
func AblationTailDrop() Figure {
	keep := Factory{"OPW-TR(keep-last)", func(d float64) compress.Algorithm {
		return compress.OPWTR{Threshold: d}
	}}
	drop := Factory{"OPW-TR(drop-tail)", func(d float64) compress.Algorithm {
		return compress.OPWTR{Threshold: d, DropTail: true}
	}}
	return Figure{
		ID:     "Ablation A1",
		Title:  "Opening-window tail handling: keep-last countermeasure vs raw tail loss",
		Series: []Series{Sweep(keep), Sweep(drop)},
	}
}

// AblationBreakStrategy isolates the break-point strategy (§2.2) under the
// synchronized distance: cutting at the offending point versus just before
// the float. The perpendicular-distance version of this ablation is the
// paper's own Figure 8.
func AblationBreakStrategy() Figure {
	at := Factory{"OPW-TR(at-violation)", func(d float64) compress.Algorithm {
		return compress.OPWTR{Threshold: d, Strategy: compress.BreakAtViolation}
	}}
	before := Factory{"OPW-TR(break-before)", func(d float64) compress.Algorithm {
		return compress.OPWTR{Threshold: d, Strategy: compress.BreakBefore}
	}}
	return Figure{
		ID:     "Ablation A2",
		Title:  "Break-point strategy under the synchronized distance",
		Series: []Series{Sweep(at), Sweep(before)},
	}
}

// BudgetFigure is extension experiment E2: compression to a fixed point
// budget (the paper's first halting condition in §2 — "the number of data
// points ... exceeds a user-defined value") instead of an error threshold.
// Uniform sampling, the online SQUISH sketch, and the offline budgeted
// top-down algorithms are compared at equal budgets under the synchronized
// error.
func BudgetFigure() Figure {
	budgets := []float64{10, 20, 40, 80}
	mk := func(name string, alg func(n int) compress.Algorithm) Series {
		s := Series{Name: name, Thresholds: budgets}
		for _, b := range budgets {
			comp, errAvg := runPoint(Dataset(), budgetAdapter{alg(int(b))})
			s.Compression = append(s.Compression, comp)
			s.Error = append(s.Error, errAvg)
		}
		return s
	}
	return Figure{
		ID:     "Extension E2",
		Title:  "Point-budget compression: uniform vs SQUISH vs budgeted top-down",
		XLabel: "budget (points)",
		Series: []Series{
			mk("Uniform", func(n int) compress.Algorithm {
				// Approximate the budget with the ceiling stride over the
				// dataset's ≈200-point trajectories (uniform sampling
				// cannot hit arbitrary budgets exactly).
				stride := (200 + n - 1) / n
				if stride < 2 {
					stride = 2
				}
				return compress.Uniform{K: stride}
			}),
			mk("SQUISH", func(n int) compress.Algorithm { return compress.SQUISH{Capacity: n} }),
			mk("NDP-N", func(n int) compress.Algorithm { return compress.DouglasPeuckerN{N: n} }),
			mk("TD-TR-N", func(n int) compress.Algorithm { return compress.TDTRN{N: n} }),
		},
	}
}

// budgetAdapter lets point-budget algorithms flow through runPoint.
type budgetAdapter struct{ compress.Algorithm }

// MapMatchFigure is extension experiment E3: map matching before
// compression. Ten noisy staircase drives on a road grid are compressed
// with TD-TR directly and after HMM snapping; both compression rate and the
// error against the noise-free ground truth are reported per threshold.
// Matching removes lateral GPS noise, so the snapped series compresses
// harder while staying closer to the true movement.
func MapMatchFigure() Figure {
	const sigma = 8.0
	roads := roadnet.Grid(71, 71, 100)
	rng := rand.New(rand.NewSource(3))

	type drivePair struct{ truth, noisy, matched trajectory.Trajectory }
	var drives []drivePair
	for d := 0; d < 10; d++ {
		var truth, noisy trajectory.Trajectory
		x, y := 0.0, 0.0
		heading := d % 2
		for i := 0; i < 120; i++ {
			t := float64(i * 10)
			truth = append(truth, trajectory.S(t, x, y))
			noisy = append(noisy, trajectory.S(t, x+rng.NormFloat64()*sigma, y+rng.NormFloat64()*sigma))
			if rng.Float64() < 0.1 {
				heading = 1 - heading
			}
			// Bounce off the grid boundary (the route never needs more
			// than 12 km in total, so only one axis can saturate).
			if heading == 0 && x >= 6900 {
				heading = 1
			}
			if heading == 1 && y >= 6900 {
				heading = 0
			}
			if heading == 0 {
				x += 100
			} else {
				y += 100
			}
		}
		_, matched, err := mapmatch.Snap(roads, noisy, mapmatch.Options{NoiseSigma: sigma})
		if err != nil {
			panic(fmt.Sprintf("experiments: map match: %v", err))
		}
		drives = append(drives, drivePair{truth: truth, noisy: noisy, matched: matched})
	}

	ths := []float64{10, 15, 20, 25, 30, 40, 50}
	sweep := func(name string, pick func(drivePair) trajectory.Trajectory) Series {
		s := Series{Name: name, Thresholds: ths}
		for _, th := range ths {
			alg := compress.TDTR{Threshold: th}
			var comp, errSum float64
			for _, d := range drives {
				in := pick(d)
				kept := alg.Compress(in)
				comp += compress.Rate(in.Len(), kept.Len())
				// Error is measured against the ground truth, not the
				// (noisy or matched) input — the quantity the application
				// cares about.
				e, err := sed.AvgError(d.truth, kept)
				if err != nil {
					panic(fmt.Sprintf("experiments: %v", err))
				}
				errSum += e
			}
			s.Compression = append(s.Compression, comp/float64(len(drives)))
			s.Error = append(s.Error, errSum/float64(len(drives)))
		}
		return s
	}

	return Figure{
		ID:     "Extension E3",
		Title:  "Map matching before compression: TD-TR on raw vs snapped tracks (error vs ground truth)",
		XLabel: "threshold (m)",
		Series: []Series{
			sweep("TD-TR(raw)", func(d drivePair) trajectory.Trajectory { return d.noisy }),
			sweep("TD-TR(matched)", func(d drivePair) trajectory.Trajectory { return d.matched }),
		},
	}
}

// OnePassFigure is extension experiment E4: the one-pass error-bounded
// family (OPERB's perpendicular bound, CISED's synchronized bound in strong
// and weak flavours) head-to-head against OPW-SP(15 m/s), the paper's best
// spatiotemporal opening-window algorithm. The one-pass algorithms decide
// each point in O(1) without re-scanning a window, so the interesting
// question is how much error/compression quality that speed costs — the
// per-point CPU side of the trade is the benchmark's per-layer
// stream.push_ns_per_point.<spec> (bench/README.md).
func OnePassFigure() Figure {
	return Figure{
		ID:    "Extension E4",
		Title: "One-pass algorithms (OPERB, CISED-S, CISED-W) vs OPW-SP(15m/s)",
		Series: SweepAll(
			OPWSPFactory(15),
			OPERBFactory,
			CISEDSFactory,
			CISEDWFactory,
		),
	}
}

// TaxonomyFigure is an extension experiment: the paper's full §2 taxonomy —
// top-down, bottom-up, sliding-window and opening-window — all under the
// synchronized (time-ratio) distance, isolating the effect of the scan
// strategy from the distance notion.
func TaxonomyFigure() Figure {
	bu := Factory{"BU-TR", func(d float64) compress.Algorithm {
		return compress.BottomUpTR{Threshold: d}
	}}
	sw := Factory{"SW-TR(20)", func(d float64) compress.Algorithm {
		return compress.SlidingWindowTR{Threshold: d, Window: 20}
	}}
	return Figure{
		ID:     "Extension E1",
		Title:  "The §2 taxonomy under the synchronized distance: TD-TR, BU-TR, SW-TR, OPW-TR",
		Series: []Series{Sweep(TDTRFactory), Sweep(bu), Sweep(sw), Sweep(OPWTRFactory)},
	}
}

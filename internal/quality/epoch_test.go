package quality

import (
	"testing"

	"repro/internal/trajectory"
)

// epoch is a Unix-epoch-scale base timestamp (≈ Nov 2023). At this
// magnitude a float64 ulp is ≈ 2.4e-7 s, so accumulating t += dt in a
// loop drifts by a fraction of an ulp per step — enough to shift the
// final sampling instant off the interval end or drop it entirely.
const epoch = 1.7e9

// TestPerpAreaErrorEpochTimestamps is the regression test for the
// float-accumulation time-stepping bug: the old `for t := t0; t <= t1;
// t += dt` sweep overshoots t1 and drops the final instant, which changes
// the sample count the mean divides by. Index stepping lands on t1 exactly.
func TestPerpAreaErrorEpochTimestamps(t *testing.T) {
	p := trajectory.MustNew([]trajectory.Sample{
		{T: epoch, X: 0, Y: 0},
		{T: epoch + 3.5, X: 35, Y: 0},
		{T: epoch + 7, X: 70, Y: 0},
	})
	a := trajectory.Trajectory{p[0], p[2]}
	got, err := PerpAreaError(p, a, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// The path is a straight line, so every one of the 11 sweep instants
	// contributes 0 — the value is exact and the call must not error out.
	if got != 0 {
		t.Errorf("collinear PerpAreaError = %v, want 0", got)
	}
}

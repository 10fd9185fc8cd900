package quality

import (
	"math"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/trajectory"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// A triangle wave approximated by its baseline.
func wave() (p, a trajectory.Trajectory) {
	p = trajectory.MustNew([]trajectory.Sample{
		trajectory.S(0, 0, 0),
		trajectory.S(1, 10, 4),
		trajectory.S(2, 20, 0),
		trajectory.S(3, 30, 4),
		trajectory.S(4, 40, 0),
	})
	a = trajectory.Trajectory{p[0], p[4]}
	return p, a
}

func TestPerpError(t *testing.T) {
	p, a := wave()
	avg, maxE, err := PerpError(p, a)
	if err != nil {
		t.Fatal(err)
	}
	// Interior points sit at heights 4, 0, 4 above the baseline.
	if !almostEq(avg, 8.0/3, 1e-9) {
		t.Errorf("avg = %v, want 8/3", avg)
	}
	if !almostEq(maxE, 4, 1e-9) {
		t.Errorf("max = %v, want 4", maxE)
	}
}

func TestPerpErrorIdentity(t *testing.T) {
	p, _ := wave()
	avg, maxE, err := PerpError(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 || maxE != 0 {
		t.Errorf("identity PerpError = %v, %v", avg, maxE)
	}
}

func TestPerpErrorRejectsNonSubsequence(t *testing.T) {
	p, _ := wave()
	alien := trajectory.MustNew([]trajectory.Sample{
		trajectory.S(0, 0, 0), trajectory.S(4, 40, 1), // second vertex not in p
	})
	if _, _, err := PerpError(p, alien); err == nil {
		t.Error("non-subsequence approximation accepted")
	}
	short := trajectory.Trajectory{trajectory.S(0, 0, 0)}
	if _, _, err := PerpError(p, short); err == nil {
		t.Error("single-vertex approximation accepted")
	}
}

func TestPerpAreaError(t *testing.T) {
	p, a := wave()
	got, err := PerpAreaError(p, a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	// Mean height of the triangle wave |/\/\| over the baseline is 2.
	if !almostEq(got, 2, 0.01) {
		t.Errorf("area error = %v, want ≈2", got)
	}
	if _, err := PerpAreaError(p, a, 0); err == nil {
		t.Error("dt=0 accepted")
	}
	if _, err := PerpAreaError(trajectory.Trajectory{}, a, 1); err == nil {
		t.Error("empty original accepted")
	}
}

func TestEvaluate(t *testing.T) {
	p, _ := wave()
	a := compress.TDTR{Threshold: 3}.Compress(p)
	r, err := Evaluate("TD-TR", p, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != "TD-TR" || r.OriginalLen != 5 || r.CompressedLen != a.Len() {
		t.Errorf("report header wrong: %+v", r)
	}
	if r.SyncMaxError > 3+1e-9 {
		t.Errorf("sync max %v exceeds TD-TR threshold", r.SyncMaxError)
	}
	if r.CompressionPct < 0 || r.CompressionPct > 100 {
		t.Errorf("compression %% out of range: %v", r.CompressionPct)
	}
	if !strings.Contains(r.String(), "TD-TR") {
		t.Errorf("String() missing algorithm name: %q", r.String())
	}
}

func TestEvaluateErrors(t *testing.T) {
	p, _ := wave()
	if _, err := Evaluate("x", p, trajectory.Trajectory{p[0]}); err == nil {
		t.Error("degenerate approximation accepted")
	}
}

func TestSyncDominatesPerp(t *testing.T) {
	p, a := wave()
	r, err := Evaluate("baseline", p, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.SyncMaxError+1e-9 < r.PerpMaxError {
		t.Errorf("sync max %v below perp max %v", r.SyncMaxError, r.PerpMaxError)
	}
}

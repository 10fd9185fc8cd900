package compress

import (
	"math/rand"
	"testing"

	"repro/internal/trajectory"
)

// A zig-zag where one spike dominates: DP must cut exactly at the spike.
func TestDouglasPeuckerCutsAtSpike(t *testing.T) {
	p := trajectory.MustNew([]trajectory.Sample{
		trajectory.S(0, 0, 0),
		trajectory.S(1, 10, 1),
		trajectory.S(2, 20, 50), // the spike
		trajectory.S(3, 30, -1),
		trajectory.S(4, 40, 0),
	})
	// After cutting at the spike the flanking points are ≈8.9 m from the
	// resulting sub-segments, so a 10 m threshold keeps only the spike.
	a := DouglasPeucker{Threshold: 10}.Compress(p)
	if a.Len() != 3 || a[1] != p[2] {
		t.Fatalf("DP output %v, want endpoints plus the spike", a)
	}
}

// Threshold zero retains every non-collinear point.
func TestDouglasPeuckerZeroThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomTrack(rng, 60)
	a := DouglasPeucker{Threshold: 0}.Compress(p)
	if a.Len() != p.Len() {
		t.Errorf("DP(0) kept %d of %d points", a.Len(), p.Len())
	}
}

// Exactly collinear interior points are removable at any threshold.
func TestDouglasPeuckerCollinear(t *testing.T) {
	var p trajectory.Trajectory
	for i := 0; i <= 10; i++ {
		p = append(p, trajectory.S(float64(i), float64(i*7), float64(i*3)))
	}
	a := DouglasPeucker{Threshold: 1e-9}.Compress(p)
	if a.Len() != 2 {
		t.Errorf("DP on collinear points kept %d, want 2", a.Len())
	}
}

// TD-TR and NDP coincide on constant-speed motion along a line only when the
// object's parameterization is uniform; under dwell they diverge. This pins
// the basic TD-TR decision rule.
func TestTDTRCutsAtSyncViolation(t *testing.T) {
	// On-line positions but wildly uneven timing: the midpoint is reached
	// at 90% of the journey time, so its synchronized position is far away.
	p := trajectory.MustNew([]trajectory.Sample{
		trajectory.S(0, 0, 0),
		trajectory.S(9, 50, 0),
		trajectory.S(10, 100, 0),
	})
	a := TDTR{Threshold: 30}.Compress(p)
	if a.Len() != 3 {
		t.Fatalf("TD-TR kept %d points, want all 3 (sync distance 40 > 30)", a.Len())
	}
	b := TDTR{Threshold: 45}.Compress(p)
	if b.Len() != 2 {
		t.Fatalf("TD-TR kept %d points, want 2 (sync distance 40 < 45)", b.Len())
	}
}

func TestTDSPRetainsSpeedJumps(t *testing.T) {
	// Straight line, constant spatial spacing, but a hard stop in the
	// middle: segments run at 10 m/s, then 1 m/s, then 10 m/s.
	p := trajectory.MustNew([]trajectory.Sample{
		trajectory.S(0, 0, 0),
		trajectory.S(10, 100, 0),  // 10 m/s
		trajectory.S(110, 200, 0), // 1 m/s  → jump of 9 at the two middle points
		trajectory.S(120, 300, 0), // 10 m/s
	})
	// Distance threshold large enough that only the speed criterion bites.
	a := TDSP{DistThreshold: 1e6, SpeedThreshold: 5}.Compress(p)
	if a.Len() != 4 {
		t.Fatalf("TD-SP kept %d points, want 4 (speed jumps of 9 m/s > 5 m/s)", a.Len())
	}
	b := TDSP{DistThreshold: 1e6, SpeedThreshold: 15}.Compress(p)
	if b.Len() != 2 {
		t.Fatalf("TD-SP kept %d points, want 2 (speed jumps below 15 m/s)", b.Len())
	}
}

func TestValidationPanics(t *testing.T) {
	cases := []func(){
		func() { DouglasPeucker{Threshold: -1}.Compress(nil) },
		func() { TDTR{Threshold: -1}.Compress(nil) },
		func() { TDSP{DistThreshold: 1, SpeedThreshold: 0}.Compress(nil) },
		func() { OPWSP{DistThreshold: 1, SpeedThreshold: -2}.Compress(nil) },
		func() { Uniform{K: 0}.Compress(trajectory.Trajectory{{}, {}, {}}) },
		func() { Angular{AngleThreshold: -0.1}.Compress(nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic on invalid parameters", i)
				}
			}()
			fn()
		}()
	}
}

// Deep recursion safety: threshold 0 on a large noisy input forces the
// maximum number of splits without overflowing any stack.
func TestTopDownDeepInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randomTrack(rng, 20000)
	a := DouglasPeucker{Threshold: 0}.Compress(p)
	if a.Len() != p.Len() {
		t.Errorf("kept %d of %d", a.Len(), p.Len())
	}
}

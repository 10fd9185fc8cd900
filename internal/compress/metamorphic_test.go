package compress

import (
	"math/rand"
	"testing"

	"repro/internal/trajectory"
)

// latticeTrack builds a random track whose coordinates and times live on a
// coarse binary-fraction lattice, so translating it by lattice amounts is
// EXACT in float64 arithmetic — differences of translated values equal the
// original differences bit-for-bit, and every distance computation sees
// identical inputs.
func latticeTrack(rng *rand.Rand, n int) trajectory.Trajectory {
	p := make(trajectory.Trajectory, n)
	t, x, y := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		p[i] = trajectory.S(t, x, y)
		t += 0.25 * float64(1+rng.Intn(60))
		x += 0.5 * float64(rng.Intn(800)-400)
		y += 0.5 * float64(rng.Intn(800)-400)
	}
	return p
}

// Every compression decision depends only on relative geometry and relative
// time, so compressing a translated/time-shifted trajectory must retain the
// translated versions of exactly the same points.
func TestTranslationEquivariance(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	algs := []Algorithm{
		Uniform{K: 4},
		Radial{Threshold: 60},
		DouglasPeucker{Threshold: 60},
		NOPW{Threshold: 60},
		BOPW{Threshold: 60},
		TDTR{Threshold: 60},
		OPWTR{Threshold: 60},
		OPWSP{DistThreshold: 60, SpeedThreshold: 25},
		TDSP{DistThreshold: 60, SpeedThreshold: 25},
		BottomUp{Threshold: 60},
		BottomUpTR{Threshold: 60},
		SlidingWindow{Threshold: 60, Window: 10},
		SlidingWindowTR{Threshold: 60, Window: 10},
		DouglasPeuckerN{N: 12},
		TDTRN{N: 12},
		SQUISH{Capacity: 12},
		DeadReckoning{Threshold: 60},
		// One-pass algorithms: every decision is made on anchor-relative
		// differences, which are bit-exact under lattice shifts. (CISED-W
		// is excluded: its synthesized joints are anchor + v·dt sums whose
		// rounding depends on the absolute coordinates.)
		OPERB{Threshold: 60},
		CISEDS{Threshold: 60},
	}
	shifts := []struct{ dt, dx, dy float64 }{
		{1024, 0, 0},        // pure time shift
		{0, 65536, -32768},  // pure translation
		{4096, -1024, 2048}, // both
	}
	for trial := 0; trial < 8; trial++ {
		p := latticeTrack(rng, 60+rng.Intn(100))
		for _, alg := range algs {
			base := alg.Compress(p)
			for _, sh := range shifts {
				shifted := alg.Compress(p.Shift(sh.dt, sh.dx, sh.dy))
				want := base.Shift(sh.dt, sh.dx, sh.dy)
				if shifted.Len() != want.Len() {
					t.Fatalf("%s: shift (%v,%v,%v) changed retention: %d vs %d points",
						alg.Name(), sh.dt, sh.dx, sh.dy, shifted.Len(), want.Len())
				}
				for i := range want {
					if shifted[i] != want[i] {
						t.Fatalf("%s: shift (%v,%v,%v): point %d = %v, want %v",
							alg.Name(), sh.dt, sh.dx, sh.dy, i, shifted[i], want[i])
					}
				}
			}
		}
	}
}

// Rotating the plane by 90° — exact in float64: (x, y) → (−y, x) — must not
// change which points any algorithm retains.
func TestRotationEquivariance(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	rot := func(p trajectory.Trajectory) trajectory.Trajectory {
		out := make(trajectory.Trajectory, p.Len())
		for i, s := range p {
			out[i] = trajectory.S(s.T, -s.Y, s.X)
		}
		return out
	}
	algs := []Algorithm{
		DouglasPeucker{Threshold: 60},
		TDTR{Threshold: 60},
		NOPW{Threshold: 60},
		OPWTR{Threshold: 60},
		OPWSP{DistThreshold: 60, SpeedThreshold: 25},
		BottomUpTR{Threshold: 60},
		SQUISH{Capacity: 15},
	}
	for trial := 0; trial < 8; trial++ {
		p := latticeTrack(rng, 100)
		r := rot(p)
		for _, alg := range algs {
			a := alg.Compress(p)
			b := alg.Compress(r)
			if a.Len() != b.Len() {
				t.Fatalf("%s: rotation changed retention: %d vs %d", alg.Name(), a.Len(), b.Len())
			}
			for i := range a {
				if a[i].T != b[i].T {
					t.Fatalf("%s: rotated selection differs at %d", alg.Name(), i)
				}
			}
		}
	}
}

// Scaling space and the distance threshold together leaves the selection of
// the scale-homogeneous algorithms unchanged (speeds scale too, so the
// speed threshold is scaled alongside).
func TestScaleEquivariance(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	const k = 4.0 // power of two: exact float scaling
	for trial := 0; trial < 8; trial++ {
		p := latticeTrack(rng, 80)
		scaled := make(trajectory.Trajectory, p.Len())
		for i, s := range p {
			scaled[i] = trajectory.S(s.T, s.X*k, s.Y*k)
		}
		type pair struct{ a, b Algorithm }
		pairs := []pair{
			{DouglasPeucker{Threshold: 50}, DouglasPeucker{Threshold: 50 * k}},
			{TDTR{Threshold: 50}, TDTR{Threshold: 50 * k}},
			{OPWTR{Threshold: 50}, OPWTR{Threshold: 50 * k}},
			{OPWSP{DistThreshold: 50, SpeedThreshold: 20}, OPWSP{DistThreshold: 50 * k, SpeedThreshold: 20 * k}},
			{BottomUpTR{Threshold: 50}, BottomUpTR{Threshold: 50 * k}},
		}
		for _, pr := range pairs {
			a := pr.a.Compress(p)
			b := pr.b.Compress(scaled)
			if a.Len() != b.Len() {
				t.Fatalf("%s: scaling changed retention: %d vs %d points", pr.a.Name(), a.Len(), b.Len())
			}
			for i := range a {
				if a[i].T != b[i].T {
					t.Fatalf("%s: scaled selection differs at %d", pr.a.Name(), i)
				}
			}
		}
	}
}

package compress

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/sed"
	"repro/internal/trajectory"
)

// randomTrack builds a car-like trajectory with varying speed and heading —
// the workload class all invariant tests run against.
func randomTrack(rng *rand.Rand, n int) trajectory.Trajectory {
	p := make(trajectory.Trajectory, n)
	t, x, y := 0.0, 0.0, 0.0
	heading := rng.Float64() * 2 * math.Pi
	speed := 5 + rng.Float64()*20
	for i := 0; i < n; i++ {
		p[i] = trajectory.S(t, x, y)
		dt := 5 + rng.Float64()*10
		speed = math.Max(0.5, speed+rng.NormFloat64()*3)
		heading += rng.NormFloat64() * 0.4
		t += dt
		x += speed * dt * math.Cos(heading)
		y += speed * dt * math.Sin(heading)
	}
	return p
}

// allAlgorithms returns one configured instance of every algorithm.
func allAlgorithms(dist, speed float64) []Algorithm {
	return []Algorithm{
		Uniform{K: 3},
		Radial{Threshold: dist},
		Angular{AngleThreshold: 0.2},
		DeadReckoning{Threshold: dist},
		DouglasPeucker{Threshold: dist},
		NOPW{Threshold: dist},
		BOPW{Threshold: dist},
		TDTR{Threshold: dist},
		OPWTR{Threshold: dist},
		OPWSP{DistThreshold: dist, SpeedThreshold: speed},
		TDSP{DistThreshold: dist, SpeedThreshold: speed},
		BottomUp{Threshold: dist},
		BottomUpTR{Threshold: dist},
		SlidingWindow{Threshold: dist, Window: 12},
		SlidingWindowTR{Threshold: dist, Window: 12},
	}
}

// Every algorithm must emit a valid trajectory that is a subsequence of the
// input, keeps the first and last points, and never grows the input.
func TestUniversalInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		p := randomTrack(rng, 30+rng.Intn(200))
		for _, alg := range allAlgorithms(50, 5) {
			a := alg.Compress(p)
			if err := a.Validate(); err != nil {
				t.Fatalf("%s: invalid output: %v", alg.Name(), err)
			}
			if !a.IsVertexSubsetOf(p) {
				t.Fatalf("%s: output is not a vertex subset", alg.Name())
			}
			if a.Len() > p.Len() {
				t.Fatalf("%s: output longer than input (%d > %d)", alg.Name(), a.Len(), p.Len())
			}
			if a.Len() < 2 {
				t.Fatalf("%s: output shrunk below 2 points (%d)", alg.Name(), a.Len())
			}
			if a[0] != p[0] {
				t.Fatalf("%s: first point not retained", alg.Name())
			}
			if a[a.Len()-1] != p[p.Len()-1] {
				t.Fatalf("%s: last point not retained", alg.Name())
			}
		}
	}
}

// A parked object (time advances, position fixed) is the ultimate
// compressible input: every algorithm must handle the zero-length segments
// gracefully and the threshold algorithms collapse it to the endpoints.
func TestStationaryTrajectory(t *testing.T) {
	var p trajectory.Trajectory
	for i := 0; i < 50; i++ {
		p = append(p, trajectory.S(float64(i*10), 100, 200))
	}
	for _, alg := range allAlgorithms(10, 5) {
		a := alg.Compress(p)
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if !a.IsVertexSubsetOf(p) {
			t.Fatalf("%s: not a subsequence", alg.Name())
		}
	}
	for _, alg := range []Algorithm{
		DouglasPeucker{Threshold: 1}, TDTR{Threshold: 1},
		NOPW{Threshold: 1}, OPWTR{Threshold: 1}, BottomUpTR{Threshold: 1},
	} {
		if a := alg.Compress(p); a.Len() != 2 {
			t.Errorf("%s kept %d points of a parked object", alg.Name(), a.Len())
		}
	}
}

// Short inputs pass through untouched.
func TestShortInputsPassThrough(t *testing.T) {
	short := []trajectory.Trajectory{
		{},
		{trajectory.S(0, 1, 2)},
		{trajectory.S(0, 1, 2), trajectory.S(1, 3, 4)},
	}
	for _, p := range short {
		for _, alg := range allAlgorithms(10, 5) {
			a := alg.Compress(p)
			if a.Len() != p.Len() {
				t.Errorf("%s on %d points returned %d points", alg.Name(), p.Len(), a.Len())
			}
		}
	}
}

// A huge threshold collapses the threshold-driven algorithms to the two
// endpoints.
func TestHugeThresholdCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randomTrack(rng, 100)
	algs := []Algorithm{
		DouglasPeucker{Threshold: 1e12},
		NOPW{Threshold: 1e12},
		BOPW{Threshold: 1e12},
		TDTR{Threshold: 1e12},
		OPWTR{Threshold: 1e12},
		OPWSP{DistThreshold: 1e12, SpeedThreshold: 1e12},
		TDSP{DistThreshold: 1e12, SpeedThreshold: 1e12},
	}
	for _, alg := range algs {
		a := alg.Compress(p)
		if a.Len() != 2 {
			t.Errorf("%s with huge threshold kept %d points, want 2", alg.Name(), a.Len())
		}
	}
}

// maxPerpToApprox returns the largest perpendicular distance of any original
// point to the approximation segment covering its index range — the
// guarantee offered by the perpendicular-distance algorithms.
func maxPerpToApprox(p, a trajectory.Trajectory) float64 {
	worst := 0.0
	ai := 0
	for k := 0; k+1 < a.Len(); k++ {
		// Locate the index range [lo, hi] of this approximation segment in p.
		for p[ai] != a[k] {
			ai++
		}
		lo := ai
		hi := lo + 1
		for p[hi] != a[k+1] {
			hi++
		}
		seg := geo.Seg(p[lo].Pos(), p[hi].Pos())
		for i := lo + 1; i < hi; i++ {
			if d := seg.PerpDist(p[i].Pos()); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// The perpendicular-distance family guarantees every discarded point lies
// within the threshold of its covering approximation segment.
func TestPerpendicularGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const eps = 40.0
	for trial := 0; trial < 20; trial++ {
		p := randomTrack(rng, 150)
		for _, alg := range []Algorithm{
			DouglasPeucker{Threshold: eps},
			NOPW{Threshold: eps},
			BOPW{Threshold: eps},
		} {
			a := alg.Compress(p)
			if worst := maxPerpToApprox(p, a); worst > eps+1e-9 {
				t.Errorf("%s: perpendicular guarantee violated: %.3f > %.3f", alg.Name(), worst, eps)
			}
		}
	}
}

// The time-ratio family guarantees the synchronized max error stays within
// the distance threshold.
func TestSynchronizedGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const eps = 40.0
	for trial := 0; trial < 20; trial++ {
		p := randomTrack(rng, 150)
		for _, alg := range []Algorithm{
			TDTR{Threshold: eps},
			OPWTR{Threshold: eps},
			OPWSP{DistThreshold: eps, SpeedThreshold: 5},
			TDSP{DistThreshold: eps, SpeedThreshold: 5},
		} {
			a := alg.Compress(p)
			worst, err := sed.MaxError(p, a)
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			if worst > eps+1e-9 {
				t.Errorf("%s: synchronized guarantee violated: %.3f > %.3f", alg.Name(), worst, eps)
			}
		}
	}
}

// The paper's motivating contrast (§3.1 / Fig. 4): an object that dwells and
// then sprints along a straight road. Perpendicular-distance methods see a
// perfect line and discard everything; the time-ratio methods retain the
// dwell structure, keeping the synchronized error small.
func TestDwellOnStraightRoad(t *testing.T) {
	// 0–60 s: crawl from x=0 to x=60 (1 m/s); 60–120 s: sprint to x=1200.
	var p trajectory.Trajectory
	for i := 0; i <= 6; i++ {
		p = append(p, trajectory.S(float64(i*10), float64(i*10), 0))
	}
	for i := 1; i <= 6; i++ {
		p = append(p, trajectory.S(60+float64(i*10), 60+float64(i)*190, 0))
	}

	ndp := DouglasPeucker{Threshold: 30}.Compress(p)
	if ndp.Len() != 2 {
		t.Fatalf("NDP kept %d points on a straight road, want 2", ndp.Len())
	}
	ndpErr, err := sed.AvgError(p, ndp)
	if err != nil {
		t.Fatal(err)
	}

	tdtr := TDTR{Threshold: 30}.Compress(p)
	tdtrErr, err := sed.AvgError(p, tdtr)
	if err != nil {
		t.Fatal(err)
	}
	if tdtr.Len() <= 2 {
		t.Fatalf("TD-TR collapsed the dwell structure (%d points)", tdtr.Len())
	}
	if tdtrErr >= ndpErr/4 {
		t.Errorf("TD-TR error %.2f not clearly below NDP error %.2f", tdtrErr, ndpErr)
	}
	if tdtrErr > 30 {
		t.Errorf("TD-TR error %.2f exceeds its threshold", tdtrErr)
	}
}

// CompressAll matches the serial results exactly, in order.
func TestCompressAll(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ps := make([]trajectory.Trajectory, 17)
	for i := range ps {
		ps[i] = randomTrack(rng, 30+rng.Intn(150))
	}
	alg := TDTR{Threshold: 40}
	got := CompressAll(alg, BatchOptions{Parallelism: 4}, ps)
	if len(got) != len(ps) {
		t.Fatalf("got %d results", len(got))
	}
	for i, p := range ps {
		want := alg.Compress(p)
		if got[i].Len() != want.Len() {
			t.Fatalf("trajectory %d: %d vs %d points", i, got[i].Len(), want.Len())
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("trajectory %d sample %d differs", i, j)
			}
		}
	}
	if out := CompressAll(alg, BatchOptions{}, nil); len(out) != 0 {
		t.Errorf("empty input gave %d results", len(out))
	}
	if out := CompressAll(alg, BatchOptions{}, ps[:1]); len(out) != 1 {
		t.Errorf("single input gave %d results", len(out))
	}
}

// Compression rate helper.
func TestRate(t *testing.T) {
	if got := Rate(200, 50); got != 75 {
		t.Errorf("Rate(200,50) = %v, want 75", got)
	}
	if got := Rate(0, 0); got != 0 {
		t.Errorf("Rate(0,0) = %v, want 0", got)
	}
	if got := Rate(10, 10); got != 0 {
		t.Errorf("Rate(10,10) = %v, want 0", got)
	}
}

package stream

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/geo"
	"repro/internal/sed"
	"repro/internal/trajectory"
)

// fuzzTrack derives a deterministic pseudo-random trajectory from a seed
// using a simple LCG, mirroring internal/compress's fuzz target.
func fuzzTrack(seed int64, n int) trajectory.Trajectory {
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	p := make(trajectory.Trajectory, n)
	t, x, y := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		p[i] = trajectory.S(t, x, y)
		t += 0.1 + next()*20
		x += (next() - 0.5) * 500
		y += (next() - 0.5) * 500
	}
	return p
}

// FuzzOPWSPStreamMatchesBatch drives the online OPW-SP engine over
// fuzz-shaped trajectories and checks it against the batch algorithm: the
// emitted stream must equal the batch output bit-for-bit (the package's
// core contract) and stay a valid vertex subsequence with both endpoints.
// A fuzzed track (at most 255 samples) never reaches compress.WindowCap;
// TestBoundedWindow checks the cap's forced cuts.
func FuzzOPWSPStreamMatchesBatch(f *testing.F) {
	f.Add(int64(1), uint8(40), float64(50), float64(5))
	f.Add(int64(7), uint8(3), float64(0), float64(1))
	f.Add(int64(11), uint8(200), float64(30), float64(15))
	f.Add(int64(42), uint8(120), float64(1e6), float64(0.5))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, dist, speed float64) {
		if n < 3 || !(dist >= 0) || math.IsInf(dist, 0) || !(speed > 0) || math.IsInf(speed, 0) {
			return
		}
		p := fuzzTrack(seed, int(n))
		got, err := Collect(New(compress.OPWSP{DistThreshold: dist, SpeedThreshold: speed}), p)
		if err != nil {
			t.Fatal(err)
		}
		want := compress.OPWSP{DistThreshold: dist, SpeedThreshold: speed}.Compress(p)
		if !sameTrajectory(got, want) {
			t.Fatalf("online OPW-SP diverges from batch: %d vs %d points", got.Len(), want.Len())
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("output invalid: %v", err)
		}
		if !got.IsVertexSubsetOf(p) {
			t.Fatal("output is not a vertex subsequence of the input")
		}
		if got[0] != p[0] || got[got.Len()-1] != p[p.Len()-1] {
			t.Fatal("output dropped an endpoint")
		}
	})
}

// FuzzOPERBStreamMatchesBatch mirrors the OPW-SP target for the one-pass
// OPERB engine: the emitted stream must equal the batch output bit-for-bit
// (they share one engine, so this pins the wrapper), stay a vertex
// subsequence with both endpoints, and honour the bounded-error invariant —
// every discarded point within ε (perpendicular distance, plus float slack)
// of the output segment covering it.
func FuzzOPERBStreamMatchesBatch(f *testing.F) {
	f.Add(int64(1), uint8(40), float64(50))
	f.Add(int64(7), uint8(3), float64(0))
	f.Add(int64(11), uint8(200), float64(30))
	f.Add(int64(42), uint8(120), float64(1e6))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, eps float64) {
		if n < 3 || !(eps >= 0) || math.IsInf(eps, 0) {
			return
		}
		p := fuzzTrack(seed, int(n))
		got, err := Collect(New(compress.OPERB{Threshold: eps}), p)
		if err != nil {
			t.Fatal(err)
		}
		want := compress.OPERB{Threshold: eps}.Compress(p)
		if !sameTrajectory(got, want) {
			t.Fatalf("online OPERB diverges from batch: %d vs %d points", got.Len(), want.Len())
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if !got.IsVertexSubsetOf(p) {
			t.Fatal("output is not a vertex subsequence of the input")
		}
		if got[0] != p[0] || got[got.Len()-1] != p[p.Len()-1] {
			t.Fatal("output dropped an endpoint")
		}
		tol := eps*(1+1e-9) + 1e-3
		j := 0
		for _, s := range p {
			for j+1 < got.Len()-1 && got[j+1].T < s.T {
				j++
			}
			seg := geo.Seg(got[j].Pos(), got[j+1].Pos())
			if d := seg.Dist(s.Pos()); d > tol {
				t.Fatalf("sample t=%v is %v from its covering segment, bound %v", s.T, d, tol)
			}
		}
	})
}

// FuzzCISEDStreamMatchesBatch is the same target for both CISED variants,
// with the bounded-error invariant measured in the synchronous Euclidean
// distance. The weak variant is additionally pinned to never invent
// timestamps.
func FuzzCISEDStreamMatchesBatch(f *testing.F) {
	f.Add(int64(1), uint8(40), float64(50), false)
	f.Add(int64(7), uint8(3), float64(0), true)
	f.Add(int64(11), uint8(200), float64(30), true)
	f.Add(int64(42), uint8(120), float64(1e6), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, eps float64, weak bool) {
		if n < 3 || !(eps >= 0) || math.IsInf(eps, 0) {
			return
		}
		p := fuzzTrack(seed, int(n))
		var batch compress.Online = compress.CISEDS{Threshold: eps}
		if weak {
			batch = compress.CISEDW{Threshold: eps}
		}
		got, err := Collect(New(batch), p)
		if err != nil {
			t.Fatal(err)
		}
		want := batch.Compress(p)
		if !sameTrajectory(got, want) {
			t.Fatalf("online %s diverges from batch: %d vs %d points", batch.Name(), got.Len(), want.Len())
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if weak {
			times := make(map[float64]bool, p.Len())
			for _, s := range p {
				times[s.T] = true
			}
			for _, s := range got {
				if !times[s.T] {
					t.Fatalf("CISED-W invented timestamp %v", s.T)
				}
			}
		} else if !got.IsVertexSubsetOf(p) {
			t.Fatal("CISED-S output is not a vertex subsequence of the input")
		}
		tol := eps*(1+1e-9) + 1e-3
		j := 0
		for _, s := range p {
			for j+1 < got.Len()-1 && got[j+1].T < s.T {
				j++
			}
			if d := sed.Distance(s, got[j], got[j+1]); d > tol {
				t.Fatalf("sample t=%v has SED %v to its covering segment, bound %v", s.T, d, tol)
			}
		}
	})
}

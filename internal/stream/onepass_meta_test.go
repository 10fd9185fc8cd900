package stream

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/geo"
	"repro/internal/gpsgen"
	"repro/internal/sed"
	"repro/internal/trajectory"
)

// Metamorphic cross-algorithm suite for the one-pass family (OPERB,
// CISED-S, CISED-W), run over seeded gpsgen fleets:
//
//	(a) the ε error bound is never exceeded, under each algorithm's own
//	    metric (perpendicular distance for OPERB, SED for CISED) —
//	    including at epoch-scale timestamps (t0 ≈ 1.7e9), where naive
//	    accumulation schemes lose precision;
//	(b) the compression rate is monotone: raising ε never retains more
//	    points.
//
// Stream-equals-batch for these and every other online algorithm is
// TestOnlineMatchesBatch.

type onePassCase struct {
	name   string
	stream func(eps float64) Compressor
	sedErr bool // error metric: SED (CISED) vs perpendicular (OPERB)
}

func onePassCases() []onePassCase {
	return []onePassCase{
		{"OPERB", func(e float64) Compressor { return New(compress.OPERB{Threshold: e}) }, false},
		{"CISED-S", func(e float64) Compressor { return New(compress.CISEDS{Threshold: e}) }, true},
		{"CISED-W", func(e float64) Compressor { return New(compress.CISEDW{Threshold: e}) }, true},
	}
}

// onePassTol mirrors the compress package's test slack: the bound is
// re-measured in coordinate space while the engines decide in derived
// spaces, which costs a few rounding steps.
func onePassTol(eps float64) float64 { return eps*(1+1e-9) + 1e-3 }

// fleetTracks builds the seeded gpsgen workload shared by the suite, once
// at native timestamps and once shifted to an epoch-scale origin.
func fleetTracks() []trajectory.Trajectory {
	g := gpsgen.New(29, gpsgen.Config{})
	tracks := g.Fleet(4, 3000, 1500)
	for _, p := range g.Fleet(3, 8000, 900) {
		tracks = append(tracks, p.Shift(1.7e9, 0, 0))
	}
	return tracks
}

// checkBound asserts every input sample is within tol of the output
// segment covering its timestamp, under the case's error metric.
func checkBound(t *testing.T, c onePassCase, p, a trajectory.Trajectory, tol float64) {
	t.Helper()
	j := 0
	for _, s := range p {
		for j+1 < a.Len()-1 && a[j+1].T < s.T {
			j++
		}
		var d float64
		if c.sedErr {
			d = sed.Distance(s, a[j], a[j+1])
		} else {
			d = geo.Seg(a[j].Pos(), a[j+1].Pos()).Dist(s.Pos())
		}
		if d > tol {
			t.Fatalf("%s: sample t=%v is %v from the simplification, bound %v", c.name, s.T, d, tol)
		}
	}
}

func TestOnePassErrorBoundOnFleets(t *testing.T) {
	for _, c := range onePassCases() {
		for ti, p := range fleetTracks() {
			for _, eps := range []float64{5, 30, 120} {
				got, err := Collect(c.stream(eps), p)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: track %d: %v", c.name, ti, err)
				}
				checkBound(t, c, p, got, onePassTol(eps))
			}
		}
	}
}

func TestOnePassCompressionMonotoneInEps(t *testing.T) {
	ladder := []float64{1, 2, 5, 10, 20, 50, 100, 200, 500}
	for _, c := range onePassCases() {
		for ti, p := range fleetTracks() {
			prev := p.Len() + 1
			for _, eps := range ladder {
				got, err := Collect(c.stream(eps), p)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if got.Len() > prev {
					t.Fatalf("%s: track %d: ε=%v retained %d points, more than the tighter ε's %d",
						c.name, ti, eps, got.Len(), prev)
				}
				prev = got.Len()
			}
		}
	}
}

// The one-pass compressors reject out-of-order input and recover cleanly
// after Flush, like every other Compressor in the package.
func TestOnePassStreamContract(t *testing.T) {
	for _, c := range onePassCases() {
		comp := c.stream(30)
		if _, err := comp.Push(trajectory.S(10, 0, 0)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := comp.Push(trajectory.S(10, 1, 1)); err == nil {
			t.Fatalf("%s: accepted a non-increasing timestamp", c.name)
		}
		comp.Flush()
		// Reusable after Flush, per the Compressor contract.
		p := fuzzTrack(5, 50)
		got, err := Collect(comp, p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := Collect(c.stream(30), p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sameTrajectory(got, want) {
			t.Fatalf("%s: reused compressor diverges from a fresh one", c.name)
		}
		// BufferLen stays ≤ 1: the one-pass O(1) memory guarantee.
		bl, ok := comp.(interface{ BufferLen() int })
		if !ok {
			t.Fatalf("%s: no BufferLen", c.name)
		}
		for i, s := range p {
			if _, err := comp.Push(s); err != nil {
				t.Fatal(err)
			}
			if n := bl.BufferLen(); n > 1 {
				t.Fatalf("%s: BufferLen %d after %d pushes", c.name, n, i+1)
			}
		}
		comp.Flush()
	}
}

// A quick sanity anchor for the head-to-head story: at a city-scale ε the
// one-pass algorithms must actually compress a fleet (not degenerate to
// retain-everything), or the CPU benchmark comparison would be vacuous.
func TestOnePassCompresses(t *testing.T) {
	g := gpsgen.New(7, gpsgen.Config{})
	p := g.Trip(gpsgen.Urban, 2400)
	for _, c := range onePassCases() {
		got, err := Collect(c.stream(30), p)
		if err != nil {
			t.Fatal(err)
		}
		if rate := compress.Rate(p.Len(), got.Len()); rate < 30 {
			t.Fatalf("%s removed only %.1f%% of an urban trip at ε=30m", c.name, rate)
		}
	}
}

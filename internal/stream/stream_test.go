package stream

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/gpsgen"
	"repro/internal/trajectory"
)

func testTrips() []trajectory.Trajectory {
	g := gpsgen.New(11, gpsgen.Config{})
	return []trajectory.Trajectory{
		g.Trip(gpsgen.Urban, 1200),
		g.Trip(gpsgen.Mixed, 1800),
		g.Trip(gpsgen.Rural, 900),
	}
}

func sameTrajectory(a, b trajectory.Trajectory) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// onlineSpecs instantiates every grammar line of compress.Help(true):
// "opwsp:D:V" becomes "opwsp:30:5" — so a new table row is covered without
// touching the tests.
func onlineSpecs(t *testing.T) []string {
	t.Helper()
	values := map[string]string{"D": "30", "V": "5"}
	var specs []string
	for _, line := range strings.Split(strings.TrimSpace(compress.Help(true)), "\n") {
		parts := strings.Split(strings.Fields(line)[0], ":")
		for i, letter := range parts[1:] {
			v, ok := values[letter]
			if !ok {
				t.Fatalf("help line %q: no test value for argument %q", line, letter)
			}
			parts[i+1] = v
		}
		specs = append(specs, strings.Join(parts, ":"))
	}
	return specs
}

// For every online-capable row of the algorithm table the emitted stream
// equals alg.Compress sample for sample, on seeded fleets at native and at
// epoch-scale timestamps. Both run the one engine of internal/compress, so
// this pins the wrapper and the "Compress = engine over the slice"
// definition. The dr:0 and dr:1e-9 rows are the
// regression for the former batch loop, which re-tested the sample that
// defines the new velocity and so kept rounding noise as "deviation".
func TestOnlineMatchesBatch(t *testing.T) {
	specs := append(onlineSpecs(t), "opwtr:100", "opwsp:30:15", "dr:0", "dr:1e-9")
	tracks := append(testTrips(), fleetTracks()...)
	for _, spec := range specs {
		alg, err := compress.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		factory, err := ParseFactory(spec)
		if err != nil {
			t.Fatal(err)
		}
		for ti, p := range tracks {
			got, err := Collect(factory(), p)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			want := alg.Compress(p)
			if !sameTrajectory(got, want) {
				t.Fatalf("%s: track %d: online %d points, batch %d points", spec, ti, got.Len(), want.Len())
			}
		}
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	c := New(compress.OPWTR{Threshold: 10})
	if _, err := c.Push(trajectory.S(5, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(trajectory.S(5, 1, 1)); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("duplicate timestamp: got %v", err)
	}
	if _, err := c.Push(trajectory.S(4, 1, 1)); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("decreasing timestamp: got %v", err)
	}
	d := New(compress.DeadReckoning{Threshold: 10})
	if _, err := d.Push(trajectory.S(5, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Push(trajectory.S(5, 1, 1)); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("dead reckoning duplicate timestamp: got %v", err)
	}
}

// Every opening-window algorithm holds at most compress.WindowCap samples,
// batch or online. A parked object and one at constant velocity fit their
// anchor–float segment forever, so on them only the cap cuts: the window
// never outgrows it, retained points are at most WindowCap samples apart,
// and the output is still the batch result, a vertex subsequence with both
// endpoints.
func TestBoundedWindow(t *testing.T) {
	n := 3 * compress.WindowCap
	parked := make(trajectory.Trajectory, n)
	straight := make(trajectory.Trajectory, n)
	for i := range parked {
		parked[i] = trajectory.S(float64(i), 100, 200)
		straight[i] = trajectory.S(float64(i), 12*float64(i), -5*float64(i))
	}
	for _, spec := range []string{"nopw:30", "bopw:30", "opwtr:30", "opwsp:30:5"} {
		alg, err := compress.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range map[string]trajectory.Trajectory{"parked": parked, "straight": straight} {
			c := New(alg.(compress.Online))
			var got trajectory.Trajectory
			for i, s := range p {
				emitted, err := c.Push(s)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, emitted...)
				if pending := c.(*online).BufferLen(); pending > compress.WindowCap {
					t.Fatalf("%s %s: %d samples pending after push %d, cap %d", spec, name, pending, i, compress.WindowCap)
				}
			}
			got = append(got, c.Flush()...)
			if want := alg.Compress(p); !sameTrajectory(got, want) {
				t.Fatalf("%s %s: online %d points, batch %d points", spec, name, got.Len(), want.Len())
			}
			if !got.IsVertexSubsetOf(p) || got[0] != p[0] || got[got.Len()-1] != p[n-1] {
				t.Fatalf("%s %s: output is not a vertex subsequence with both endpoints", spec, name)
			}
			prev := 0
			for _, s := range got[1:] {
				idx := int(s.T) // t is the sample index on both tracks
				if idx-prev > compress.WindowCap {
					t.Fatalf("%s %s: retained samples %d and %d are %d apart, cap %d", spec, name, prev, idx, idx-prev, compress.WindowCap)
				}
				prev = idx
			}
		}
	}
}

func TestCompressorReusableAfterFlush(t *testing.T) {
	c := New(compress.OPWTR{Threshold: 50})
	p := testTrips()[0]
	first, err := Collect(c, p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Collect(c, p) // same compressor, fresh stream
	if err != nil {
		t.Fatal(err)
	}
	if !sameTrajectory(first, second) {
		t.Error("compressor state leaked across Flush")
	}
}

func TestFlushSingleSample(t *testing.T) {
	c := New(compress.OPWTR{Threshold: 50})
	emitted, err := c.Push(trajectory.S(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 1 {
		t.Fatalf("first sample not emitted immediately: %v", emitted)
	}
	if out := c.Flush(); len(out) != 0 {
		t.Errorf("flush re-emitted the only sample: %v", out)
	}
}

func TestValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { New(compress.OPWTR{Threshold: -1}) },
		func() { New(compress.OPWSP{DistThreshold: 10}) },
		func() { New(compress.NOPW{Threshold: -1}) },
		func() { New(compress.DeadReckoning{Threshold: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

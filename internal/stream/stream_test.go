package stream

import (
	"context"
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
// "opwsp:D:V[:W]" becomes "opwsp:30:5" and, because a window cap is offered,
// "opwsp:30:5:8" — so a new table row is covered without touching the tests.
func onlineSpecs(t *testing.T) []string {
	t.Helper()
	values := map[string]string{"D": "30", "V": "5"}
	var specs []string
	for _, line := range strings.Split(strings.TrimSpace(compress.Help(true)), "\n") {
		grammar, capped := strings.CutSuffix(strings.Fields(line)[0], "[:W]")
		parts := strings.Split(grammar, ":")
		for i, letter := range parts[1:] {
			v, ok := values[letter]
			if !ok {
				t.Fatalf("help line %q: no test value for argument %q", line, letter)
			}
			parts[i+1] = v
		}
		spec := strings.Join(parts, ":")
		specs = append(specs, spec)
		if capped {
			specs = append(specs, spec+":8")
		}
	}
	return specs
}

// For every online-capable row of the algorithm table the emitted stream
// equals alg.Compress sample for sample, on seeded fleets at native and at
// epoch-scale timestamps. Both run the one engine of internal/compress, so
// this pins the wrapper and the "Compress = engine over the slice"
// definition, capped windows included. The dr:0 and dr:1e-9 rows are the
// regression for the former batch loop, which re-tested the sample that
// defines the new velocity and so kept rounding noise as "deviation".
func TestOnlineMatchesBatch(t *testing.T) {
	specs := append(onlineSpecs(t), "opwtr:100", "opwsp:30:15:8", "dr:0", "dr:1e-9")
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

// A bounded window must cut eventually but still produce a valid subsequence
// within the synchronized error guarantee.
func TestBoundedWindow(t *testing.T) {
	p := testTrips()[0]
	const cap = 8
	got, err := Collect(New(compress.OPWTR{Threshold: 1e12, MaxWindow: cap}), p) // huge threshold: only the cap cuts
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("bounded-window output invalid: %v", err)
	}
	if !got.IsVertexSubsetOf(p) {
		t.Fatal("bounded-window output not a subsequence")
	}
	// With the cap, roughly one point per cap-1 inputs must be retained.
	if got.Len() < p.Len()/cap {
		t.Errorf("bounded window kept only %d of %d points", got.Len(), p.Len())
	}
	unbounded := compress.OPWTR{Threshold: 1e12}.Compress(p)
	if got.Len() <= unbounded.Len() {
		t.Errorf("cap had no effect: %d vs %d points", got.Len(), unbounded.Len())
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
		func() { New(compress.OPWTR{Threshold: 10, MaxWindow: 2}) }, // window cap too small
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

func TestPipeline(t *testing.T) {
	p := testTrips()[0]
	in := make(chan trajectory.Sample)
	out := make(chan trajectory.Sample)
	errc := make(chan error, 1)
	go func() {
		errc <- Pipeline(context.Background(), New(compress.OPWTR{Threshold: 50}), in, out)
	}()
	go func() {
		for _, s := range p {
			in <- s
		}
		close(in)
	}()
	var got trajectory.Trajectory
	for s := range out {
		got = append(got, s)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	want := compress.OPWTR{Threshold: 50}.Compress(p)
	if !sameTrajectory(got, want) {
		t.Errorf("pipeline output %d points, batch %d", got.Len(), want.Len())
	}
}

func TestPipelineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan trajectory.Sample)
	out := make(chan trajectory.Sample)
	errc := make(chan error, 1)
	go func() {
		errc <- Pipeline(ctx, New(compress.OPWTR{Threshold: 50}), in, out)
	}()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation returned %v", err)
	}
	if _, ok := <-out; ok {
		t.Error("out channel not closed after cancellation")
	}
}

func TestPipelinePropagatesPushError(t *testing.T) {
	in := make(chan trajectory.Sample, 2)
	out := make(chan trajectory.Sample, 16)
	in <- trajectory.S(5, 0, 0)
	in <- trajectory.S(4, 0, 0) // out of order
	close(in)
	err := Pipeline(context.Background(), New(compress.OPWTR{Threshold: 50}), in, out)
	if !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("got %v, want ErrOutOfOrder", err)
	}
}

package store

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/compress"
	"repro/internal/geo"
	"repro/internal/gpsgen"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

func TestNearest(t *testing.T) {
	st := New(Options{})
	// Three objects moving east on parallel tracks at y = 0, 100, 300.
	for i, y := range []float64{0, 100, 300} {
		id := []string{"close", "mid", "far"}[i]
		feed(t, st, id, trajectory.MustNew([]trajectory.Sample{
			trajectory.S(0, 0, y), trajectory.S(10, 100, y),
		}))
	}
	// One object outside the time span.
	feed(t, st, "ghost", trajectory.MustNew([]trajectory.Sample{
		trajectory.S(100, 0, 0), trajectory.S(110, 100, 0),
	}))

	got := st.Nearest(geo.Pt(50, 0), 5, 2)
	if len(got) != 2 {
		t.Fatalf("Nearest returned %d results", len(got))
	}
	if got[0].ID != "close" || got[1].ID != "mid" {
		t.Errorf("order = %s, %s", got[0].ID, got[1].ID)
	}
	if got[0].Dist > 1e-9 {
		t.Errorf("closest distance = %v, want 0", got[0].Dist)
	}
	if !got[1].Pos.AlmostEqual(geo.Pt(50, 100), 1e-9) {
		t.Errorf("mid position = %v", got[1].Pos)
	}
	// k larger than the live population.
	if got := st.Nearest(geo.Pt(0, 0), 5, 10); len(got) != 3 {
		t.Errorf("want 3 live objects, got %d", len(got))
	}
	// k ≤ 0 yields nothing.
	if got := st.Nearest(geo.Pt(0, 0), 5, 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	// Time with nobody live.
	if got := st.Nearest(geo.Pt(0, 0), 50, 3); len(got) != 0 {
		t.Errorf("dead time returned %v", got)
	}
}

// locAt must answer exactly what snapshot().LocAt answers, for every shape of
// object: no tail, a tail behind 0, 1 or many retained samples, and t on,
// between and outside the timestamps.
func TestLocAtMatchesSnapshot(t *testing.T) {
	r3 := trajectory.Trajectory{trajectory.S(10, 0, 0), trajectory.S(20, 7, 3), trajectory.S(40, 9, 11)}
	objs := map[string]*object{
		"empty":         {},
		"tail only":     {lastRaw: trajectory.S(10, 1, 2), rawSeen: 1},
		"one, no tail":  {retained: r3[:1], lastRaw: r3[0], rawSeen: 1},
		"one + tail":    {retained: r3[:1], lastRaw: trajectory.S(15, 3, 1), rawSeen: 2},
		"many, no tail": {retained: r3, lastRaw: r3[2], rawSeen: 3},
		"many + tail":   {retained: r3, lastRaw: trajectory.S(47, 13, 17), rawSeen: 9},
	}
	for name, obj := range objs {
		for at := 5.0; at <= 50; at += 0.5 {
			want, wantOK := obj.snapshot().LocAt(at)
			got, ok := obj.locAt(at)
			// The two must agree bit for bit, not approximately.
			if ok != wantOK || got != want {
				t.Errorf("%s: locAt(%v) = %v, %v; snapshot().LocAt = %v, %v", name, at, got, ok, want, wantOK)
			}
		}
	}
}

// Nearest and RangePoints visit every object; they must read the retained
// samples in place. Copying them through snapshot() allocates the whole hot
// tier per query, and a server answering a few thousand queries a second
// then runs the collector back to back.
func TestCrossObjectReadsDoNotCopyTheHotTier(t *testing.T) {
	st := New(Options{Shards: 4})
	const objects, points = 64, 512 // 64 × 512 × 24 B = 768 KiB retained
	for i := 0; i < objects; i++ {
		feed(t, st, fmt.Sprintf("v%02d", i), eastbound(0, float64(i)*1e4, points))
	}
	far := geo.Rect{Min: geo.Pt(-9e6, -9e6), Max: geo.Pt(-8e6, -8e6)}
	for name, query := range map[string]func(){
		"RangePoints": func() { st.RangePoints(far, 0, 1e9) },
		"Nearest":     func() { st.Nearest(geo.Pt(0, 0), 100, 3) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		if perQuery := (after.TotalAlloc - before.TotalAlloc) / 10; perQuery > objects*points*24/8 {
			t.Errorf("%s allocates %d B per query over a %d B hot tier", name, perQuery, objects*points*24)
		}
	}
}

// PositionAt reads one object; it must answer exactly what
// Snapshot().LocAt answers — before, inside, in the buffered tail and after
// the recorded span — without cloning the object to interpolate one point.
func TestPositionAtMatchesSnapshotWithoutCopying(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	st := New(Options{
		Shards:        4,
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 30}) },
	})
	g := gpsgen.New(5, gpsgen.Config{})
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%02d", i)
		feed(t, st, ids[i], g.Trip(gpsgen.Urban, 300+600*rng.Float64()))
	}
	for _, id := range ids {
		snap, _ := st.Snapshot(id)
		retained, _ := st.Retained(id)
		if snap.Len() != retained.Len()+1 {
			t.Fatalf("%s: no buffered tail to test (snapshot %d, retained %d)", id, snap.Len(), retained.Len())
		}
		t0, tTail, t1 := snap.StartTime(), retained.EndTime(), snap.EndTime()
		times := []float64{t0 - 1, t0, tTail, (tTail + t1) / 2, t1, t1 + 1, math.NaN()}
		for i := 0; i < 50; i++ {
			times = append(times, t0+(t1-t0)*rng.Float64())
		}
		for _, at := range times {
			want, wantOK := snap.LocAt(at)
			// Bit for bit, not approximately.
			if got, ok := st.PositionAt(id, at); ok != wantOK || got != want {
				t.Errorf("%s: PositionAt(%v) = %v, %v; Snapshot().LocAt = %v, %v", id, at, got, ok, want, wantOK)
			}
		}
	}
	if _, ok := st.PositionAt("ghost", 0); ok {
		t.Error("unknown object answered")
	}

	long := New(Options{})
	const points = 4096 // 96 KiB retained
	feed(t, long, "v", eastbound(0, 0, points))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		long.PositionAt("v", 1000.5)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / 10; perCall > points*24/8 {
		t.Errorf("PositionAt allocates %d B per call on a %d B object", perCall, points*24)
	}
}

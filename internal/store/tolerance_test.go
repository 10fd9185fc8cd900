package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/geo"
	"repro/internal/gpsgen"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

// With compression on, a plain Query can miss objects whose true path
// clipped a rectangle that the straightened segments miss;
// QueryWithTolerance(eps) must never miss them (no false negatives
// relative to the original movement).
func TestQueryWithToleranceNoFalseNegatives(t *testing.T) {
	const eps = 60.0
	compressed := New(Options{
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: eps}) },
		CellSize:      400,
	})
	truth := New(Options{CellSize: 400}) // raw reference store

	g := gpsgen.New(61, gpsgen.Config{})
	bounds := geo.EmptyRect()
	var tMax float64
	for v := 0; v < 8; v++ {
		p := g.Trip(gpsgen.Urban, 900)
		id := fmt.Sprintf("car-%d", v)
		for _, s := range p {
			if err := compressed.Append(id, s); err != nil {
				t.Fatal(err)
			}
			if err := truth.Append(id, s); err != nil {
				t.Fatal(err)
			}
		}
		bounds = bounds.Union(p.Bounds())
		if p.EndTime() > tMax {
			tMax = p.EndTime()
		}
	}

	rng := rand.New(rand.NewSource(9))
	var missesWithoutTolerance int
	for q := 0; q < 300; q++ {
		cx := bounds.Min.X + rng.Float64()*bounds.Width()
		cy := bounds.Min.Y + rng.Float64()*bounds.Height()
		half := 50 + rng.Float64()*500
		rect := geo.Rect{Min: geo.Pt(cx-half, cy-half), Max: geo.Pt(cx+half, cy+half)}
		t0 := rng.Float64() * tMax
		t1 := t0 + rng.Float64()*tMax/3

		want := truth.Query(rect, t0, t1)
		gotTol := toSet(compressed.QueryWithTolerance(rect, t0, t1, eps))
		for _, id := range want {
			if !gotTol[id] {
				t.Fatalf("query %d: object %s present in truth but missed with tolerance", q, id)
			}
		}
		gotPlain := toSet(compressed.Query(rect, t0, t1))
		for _, id := range want {
			if !gotPlain[id] {
				missesWithoutTolerance++
				break
			}
		}
	}
	// The tolerance must actually be needed on this workload; otherwise the
	// test proves nothing.
	if missesWithoutTolerance == 0 {
		t.Log("note: plain Query never missed; workload may be too easy for the tolerance test")
	}
}

func TestQueryWithToleranceNegativeEps(t *testing.T) {
	st := New(Options{})
	var line trajectory.Trajectory
	for i := 0; i <= 10; i++ {
		line = append(line, trajectory.S(float64(i), float64(i*10), 0))
	}
	feed(t, st, "a", line)
	rect := geo.Rect{Min: geo.Pt(40, -10), Max: geo.Pt(60, 10)}
	// Negative eps is clamped to zero, not shrunk.
	if got := st.QueryWithTolerance(rect, 0, 10, -100); len(got) != 1 {
		t.Errorf("QueryWithTolerance(-100) = %v", got)
	}
}

func toSet(ids []string) map[string]bool {
	m := make(map[string]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

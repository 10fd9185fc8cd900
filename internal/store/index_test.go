package store

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/gpsgen"
	"repro/internal/trajectory"
)

// Both index kinds must answer every query with the identical ID set.
func TestGridAndRTreeAgree(t *testing.T) {
	grid := New(Options{Index: IndexGrid, CellSize: 700})
	rt := New(Options{Index: IndexRTree})

	g := gpsgen.New(6, gpsgen.Config{})
	var bounds geo.Rect = geo.EmptyRect()
	var tMax float64
	for v := 0; v < 12; v++ {
		kind := []gpsgen.TripKind{gpsgen.Urban, gpsgen.Mixed, gpsgen.Rural}[v%3]
		p := g.Trip(kind, 900).Shift(0, float64(v%4)*3000, float64(v/4)*3000)
		id := fmt.Sprintf("car-%d", v)
		for _, s := range p {
			if err := grid.Append(id, s); err != nil {
				t.Fatal(err)
			}
			if err := rt.Append(id, s); err != nil {
				t.Fatal(err)
			}
		}
		bounds = bounds.Union(p.Bounds())
		if p.EndTime() > tMax {
			tMax = p.EndTime()
		}
	}

	rng := rand.New(rand.NewSource(44))
	for q := 0; q < 200; q++ {
		cx := bounds.Min.X + rng.Float64()*bounds.Width()
		cy := bounds.Min.Y + rng.Float64()*bounds.Height()
		half := 100 + rng.Float64()*3000
		rect := geo.Rect{Min: geo.Pt(cx-half, cy-half), Max: geo.Pt(cx+half, cy+half)}
		t0 := rng.Float64() * tMax
		t1 := t0 + rng.Float64()*tMax/2

		a := grid.Query(rect, t0, t1)
		b := rt.Query(rect, t0, t1)
		if len(a) != len(b) {
			t.Fatalf("query %d: grid %v vs rtree %v", q, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d: grid %v vs rtree %v", q, a, b)
			}
		}
	}
}

func TestRTreeStoreBasics(t *testing.T) {
	st := New(Options{Index: IndexRTree})
	feed(t, st, "a", trajectory.MustNew([]trajectory.Sample{
		trajectory.S(0, 0, 0), trajectory.S(10, 500, 0),
	}))
	got := st.Query(geo.Rect{Min: geo.Pt(200, -50), Max: geo.Pt(300, 50)}, 0, 20)
	if len(got) != 1 || got[0] != "a" {
		t.Errorf("Query = %v", got)
	}
	if got := st.Query(geo.Rect{Min: geo.Pt(200, -50), Max: geo.Pt(300, 50)}, 50, 60); len(got) != 0 {
		t.Errorf("time-disjoint Query = %v", got)
	}
}

// The grid's work must be set by the data it holds, never by coordinates a
// client chooses: rectangles far larger than the data, beyond the int32 cell
// range, or unbounded return what the R-tree store returns, promptly.
func TestHugeRectanglesAgreeAcrossIndexes(t *testing.T) {
	inf := math.Inf(1)
	for _, kind := range []IndexKind{IndexGrid, IndexRTree} {
		st := New(Options{Index: kind})
		feed(t, st, "a", trajectory.MustNew([]trajectory.Sample{
			trajectory.S(0, 0, 0), trajectory.S(0.5, 100, 50), trajectory.S(1, 200, 0),
		}))
		feed(t, st, "late", trajectory.MustNew([]trajectory.Sample{
			trajectory.S(5, 0, 0), trajectory.S(6, 100, 50),
		}))
		for _, q := range []struct {
			name   string
			lo, hi float64
			want   string
		}{
			{"±3e6", -3e6, 3e6, "[a]"},
			{"±1e12", -1e12, 1e12, "[a]"},
			{"far corner", 1e15, 1e15 + 1e6, "[]"},
			{"±MaxFloat64", -math.MaxFloat64, math.MaxFloat64, "[a]"},
			{"±Inf", -inf, inf, "[a]"},
		} {
			rect := geo.Rect{Min: geo.Pt(q.lo, q.lo), Max: geo.Pt(q.hi, q.hi)}
			var got []string
			within(t, 2*time.Second, func() { got = st.Query(rect, 0.2, 0.8) })
			if fmt.Sprint(got) != q.want {
				t.Errorf("index %d, %s: Query = %v, want %s", kind, q.name, got, q.want)
			}
		}
	}
}

// One GPS glitch far from the previous fix must cost one index entry, not
// one per cell of the jump's bounding box, and must stay findable. The jump
// is a run of its own; the short segment after it is the open run, which is
// not in the index.
func TestLongJumpIsOneIndexEntry(t *testing.T) {
	for _, kind := range []IndexKind{IndexGrid, IndexRTree} {
		st := New(Options{Index: kind, Shards: 1})
		var err error
		within(t, 2*time.Second, func() {
			for _, s := range []trajectory.Sample{
				trajectory.S(0, 0, 0), trajectory.S(1, 2e6, 2e6), trajectory.S(2, 2e6+10, 2e6),
			} {
				err = errors.Join(err, st.Append("a", s))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := st.shards[0].index.(*gridIndex); ok {
			n := len(g.oversize)
			for _, es := range g.cells {
				n += len(es)
			}
			if n != 1 {
				t.Errorf("grid holds %d entries for one closed run", n)
			}
		}
		mid := geo.Rect{Min: geo.Pt(1e6-5, 1e6-5), Max: geo.Pt(1e6+5, 1e6+5)}
		if got := st.Query(mid, 0, 1); len(got) != 1 || got[0] != "a" {
			t.Errorf("index %d: Query mid-jump = %v, want [a]", kind, got)
		}
		if got := st.Query(mid, 1.5, 2); len(got) != 0 {
			t.Errorf("index %d: Query mid-jump after it = %v, want none", kind, got)
		}
	}
}

// The oversize threshold is in cells, so it scales with CellSize: at a 100 m
// cell a fleet whose fixes lie 1.5 km apart (aircraft, ships, a strongly
// compressed motorway track) files every segment under oversize, and the grid
// answers by a linear scan of them — correct, bounded by the data held, but no
// longer an index. This pins that known degradation and that the answers stay
// those of the R-tree store.
func TestSparseFleetOnSmallCellsIsAllOversize(t *testing.T) {
	grid := New(Options{Index: IndexGrid, CellSize: 100, Shards: 1})
	rt := New(Options{Index: IndexRTree})
	const objects, fixes, step = 40, 20, 1500.0
	for v := 0; v < objects; v++ {
		id := fmt.Sprintf("ship-%d", v)
		for i := 0; i < fixes; i++ {
			s := trajectory.S(float64(i), float64(v)*400+float64(i)*step, float64(i)*step)
			if err := errors.Join(grid.Append(id, s), rt.Append(id, s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := grid.shards[0].index.(*gridIndex)
	if len(g.oversize) != objects*(fixes-1) || len(g.cells) != 0 {
		t.Errorf("oversize holds %d of %d segments, %d cells populated; want all, none",
			len(g.oversize), objects*(fixes-1), len(g.cells))
	}
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 100; q++ {
		c := geo.Pt(rng.Float64()*fixes*step, rng.Float64()*fixes*step)
		half := 50 + rng.Float64()*2000
		rect := geo.Rect{Min: geo.Pt(c.X-half, c.Y-half), Max: geo.Pt(c.X+half, c.Y+half)}
		t0 := rng.Float64() * fixes
		if a, b := grid.Query(rect, t0, t0+2), rt.Query(rect, t0, t0+2); fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("query %d: grid %v vs rtree %v", q, a, b)
		}
	}
}

// within runs f and fails the test if it has not returned after d; f keeps
// running in that case, which a failing test binary can afford.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("no answer within %v", d)
	}
}

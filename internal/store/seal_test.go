package store

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/gpsgen"
	"repro/internal/metrics"
	"repro/internal/trajectory"
)

// sealEpoch puts sealed-tier tests at Unix-time magnitude, where float64
// time resolution is coarsest.
const sealEpoch = 1.7e9

// eastbound returns n samples marching east from x0 at 1 m/s, every 10 s.
func eastbound(t0, x0 float64, n int) trajectory.Trajectory {
	out := make(trajectory.Trajectory, n)
	for i := range out {
		out[i] = trajectory.S(t0+float64(i)*10, x0+float64(i)*10, 0)
	}
	return out
}

func newSealingStore(t *testing.T) *Store {
	t.Helper()
	return New(Options{SealEps: 2, SealBlockPoints: 32, Shards: 4, Metrics: metrics.NewRegistry()})
}

func TestSealBeforeRequiresTier(t *testing.T) {
	st := New(Options{Metrics: metrics.NewRegistry()})
	if st.SealEnabled() {
		t.Fatal("tier present without SealEps")
	}
	if _, err := st.SealBefore(100); !errors.Is(err, ErrSealDisabled) {
		t.Fatalf("SealBefore without tier: %v", err)
	}
}

func TestEvictBeforeSealsInsteadOfDropping(t *testing.T) {
	st := newSealingStore(t)
	p := eastbound(sealEpoch, 0, 100)
	feed(t, st, "car", p)

	cutT := sealEpoch + 500 // first surviving sample is index 50
	removed := st.EvictBefore(cutT)
	if removed != 50 {
		t.Fatalf("EvictBefore removed %d, want 50", removed)
	}
	if st.SealedPoints() != 51 {
		t.Errorf("sealed points = %d, want 51 (50 aged + overlap head)", st.SealedPoints())
	}
	if st.SealedBlocks() == 0 || st.SealedBytes() == 0 {
		t.Error("sealed footprint not accounted")
	}

	// The hot tier kept the tail, including the boundary sample.
	snap, ok := st.Snapshot("car")
	if !ok || snap.Len() != 50 {
		t.Fatalf("hot snapshot = %d samples, want 50", snap.Len())
	}
	if snap[0].T != p[50].T {
		t.Errorf("hot tier starts at t=%v, want boundary %v", snap[0].T, p[50].T)
	}

	// Old, sealed-only history still answers range queries.
	early := geo.Rect{Min: geo.Pt(95, -5), Max: geo.Pt(105, 5)} // around sample 10
	ids := st.Query(early, sealEpoch, sealEpoch+200)
	if len(ids) != 1 || ids[0] != "car" {
		t.Errorf("sealed-era Query = %v, want [car]", ids)
	}
}

func TestSealBeforeMatchesEvictAndIsIdempotent(t *testing.T) {
	st := newSealingStore(t)
	p := eastbound(sealEpoch, 0, 60)
	feed(t, st, "car", p)

	moved, err := st.SealBefore(sealEpoch + 300)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 30 {
		t.Fatalf("SealBefore moved %d, want 30", moved)
	}
	// Sealing again at the same cut is a no-op.
	moved, err = st.SealBefore(sealEpoch + 300)
	if err != nil || moved != 0 {
		t.Fatalf("second SealBefore = (%d, %v), want (0, nil)", moved, err)
	}
	// Advancing the cut seals the next run, continuing the chain.
	moved, err = st.SealBefore(sealEpoch + 450)
	if err != nil || moved != 15 {
		t.Fatalf("third SealBefore = (%d, %v), want (15, nil)", moved, err)
	}
	if st.SealedPoints() != 46 {
		t.Errorf("sealed points = %d, want 46 (samples 0..45, boundaries counted once)", st.SealedPoints())
	}
}

func TestQueryStraddlesHotColdBoundary(t *testing.T) {
	st := newSealingStore(t)
	p := eastbound(sealEpoch, 0, 100)
	feed(t, st, "car", p)
	if _, err := st.SealBefore(sealEpoch + 500); err != nil {
		t.Fatal(err)
	}

	// A window spanning the boundary (samples ~40..60) must answer from the
	// union of both tiers.
	straddle := geo.Rect{Min: geo.Pt(400, -5), Max: geo.Pt(600, 5)}
	ids := st.Query(straddle, sealEpoch+400, sealEpoch+600)
	if len(ids) != 1 || ids[0] != "car" {
		t.Fatalf("straddling Query = %v, want [car]", ids)
	}

	pts := st.RangePoints(straddle, sealEpoch+400, sealEpoch+600)
	if len(pts) != 21 {
		t.Fatalf("straddling RangePoints = %d points, want 21 (samples 40..60, boundary once)", len(pts))
	}
	for i, rp := range pts {
		want := p[40+i]
		if rp.ID != "car" || rp.S.Pos().Dist(want.Pos()) > 2 {
			t.Errorf("point %d = %v, want within eps of %v", i, rp.S, want)
		}
	}
	// The boundary sample must appear exactly once and bit-exact (it is
	// stored exactly in both tiers).
	seen := 0
	for _, rp := range pts {
		if rp.S == p[50] {
			seen++
		}
	}
	if seen != 1 {
		t.Errorf("boundary sample reported %d times, want exactly 1", seen)
	}
}

func TestNearestFallsBackToColdTier(t *testing.T) {
	st := newSealingStore(t)
	feed(t, st, "old", eastbound(sealEpoch, 0, 50))          // ends t+490
	feed(t, st, "fresh", eastbound(sealEpoch+1000, 1e4, 50)) // hot era only
	// Age out everything before t+600: "old" becomes sealed-only (its hot
	// object is dropped entirely), "fresh" stays hot.
	if _, err := st.SealBefore(sealEpoch + 600); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Snapshot("old"); ok {
		t.Fatal("fully aged object still hot")
	}

	// kNN at a sealed-era instant finds "old" from its blocks.
	nbs := st.Nearest(geo.Pt(100, 0), sealEpoch+100, 2)
	if len(nbs) != 1 || nbs[0].ID != "old" {
		t.Fatalf("sealed-era Nearest = %+v, want [old]", nbs)
	}
	if nbs[0].Pos.Dist(geo.Pt(100, 0)) > 2+1e-9 {
		t.Errorf("sealed-era position %v off by more than eps", nbs[0].Pos)
	}

	// kNN at a hot-era instant finds "fresh" from the hot tier.
	nbs = st.Nearest(geo.Pt(1e4, 0), sealEpoch+1100, 2)
	if len(nbs) != 1 || nbs[0].ID != "fresh" {
		t.Fatalf("hot-era Nearest = %+v, want [fresh]", nbs)
	}
}

func TestNearestPrefersHotTier(t *testing.T) {
	st := newSealingStore(t)
	p := eastbound(sealEpoch, 0, 100)
	feed(t, st, "car", p)
	if _, err := st.SealBefore(sealEpoch + 500); err != nil {
		t.Fatal(err)
	}
	// The boundary instant is covered by both tiers: exactly one result.
	nbs := st.Nearest(geo.Pt(500, 0), sealEpoch+500, 10)
	if len(nbs) != 1 {
		t.Fatalf("boundary Nearest = %+v, want exactly one result", nbs)
	}
	// Hot tier is exact, so the position matches the original sample.
	if !nbs[0].Pos.Equal(p[50].Pos()) {
		t.Errorf("boundary position %v, want exact hot %v", nbs[0].Pos, p[50].Pos())
	}
}

func TestSealOnEvictAcrossShardsAndQueryTolerance(t *testing.T) {
	st := New(Options{SealEps: 3, SealBlockPoints: 16, Shards: 8, Metrics: metrics.NewRegistry()})
	g := gpsgen.New(11, gpsgen.Config{})
	fleet := g.Fleet(10, 2000, 1500)
	orig := map[string]trajectory.Trajectory{}
	for i, p := range fleet {
		id := fmt.Sprintf("v%d", i)
		q := p.Clone()
		for j := range q {
			q[j].T += sealEpoch
		}
		orig[id] = q
		feed(t, st, id, q)
	}
	hotStats := st.Stats()

	if _, err := st.SealBefore(sealEpoch + 1000); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.SealedPoints == 0 {
		t.Fatal("nothing sealed across shards")
	}
	if stats.RetainedPoints >= hotStats.RetainedPoints {
		t.Error("hot tier did not shrink")
	}

	// QueryWithTolerance over the sealed era must keep the no-false-negative
	// contract against the original points.
	for id, p := range orig {
		s := p[p.Len()/4] // a sealed-era sample
		rect := geo.Rect{Min: s.Pos(), Max: s.Pos()}.Expand(1)
		ids := st.QueryWithTolerance(rect, s.T-1, s.T+1, 0)
		found := false
		for _, got := range ids {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Errorf("object %s missing from tolerance query at its own sealed sample", id)
		}
	}
}

// The seal boundary sample is stored exactly in both tiers, so a window
// that misses it — by less than the seal ε — must not return it: only
// reconstructed samples get the ε-grown rectangle.
func TestRangePointsExactBoundaryNotGrown(t *testing.T) {
	st := newSealingStore(t) // SealEps 2
	p := eastbound(sealEpoch, 0, 100)
	feed(t, st, "car", p)
	if _, err := st.SealBefore(sealEpoch + 500); err != nil { // boundary: p[50] at x=500
		t.Fatal(err)
	}
	window := geo.Rect{Min: geo.Pt(445, -5), Max: geo.Pt(499, 5)} // ends 1 m short of p[50]
	pts := st.RangePoints(window, sealEpoch, sealEpoch+1e4)
	if len(pts) != 5 {
		t.Fatalf("RangePoints = %d points, want 5 (samples 45..49)", len(pts))
	}
	for _, rp := range pts {
		if rp.S == p[50] {
			t.Errorf("exact boundary sample %v returned from a window that misses it", rp.S)
		}
	}
	// The chain's exact first sample p[0] at x=0 gets no grown rectangle either.
	if pts := st.RangePoints(geo.Rect{Min: geo.Pt(1, -5), Max: geo.Pt(25, 5)}, sealEpoch, sealEpoch+1e4); len(pts) != 2 {
		t.Errorf("RangePoints near the chain head = %d points, want 2 (samples 1, 2)", len(pts))
	}
}

func TestRangePointsHotOnly(t *testing.T) {
	st := New(Options{Metrics: metrics.NewRegistry()}) // no sealing
	p := eastbound(sealEpoch, 0, 20)
	feed(t, st, "car", p)
	pts := st.RangePoints(geo.Rect{Min: geo.Pt(45, -1), Max: geo.Pt(105, 1)}, sealEpoch, sealEpoch+1e4)
	if len(pts) != 6 {
		t.Fatalf("hot RangePoints = %d, want 6 (samples 5..10)", len(pts))
	}
	for i, rp := range pts {
		if rp.S != p[5+i] {
			t.Errorf("hot point %d = %v, want exact %v", i, rp.S, p[5+i])
		}
	}
	if got := st.RangePoints(geo.EmptyRect(), 0, 1); got != nil {
		t.Errorf("empty rect returned %v", got)
	}
}

// TestEveryVerbSeesSealedHistory: an object whose history is partly or
// wholly sealed keeps answering the per-object verbs. PositionAt falls back
// to the cold tier within its error bound (the hot tier wins where both
// answer), IDs and Stats.Objects count sealed-only objects, and Snapshot
// stays the hot tier's trajectory.
func TestEveryVerbSeesSealedHistory(t *testing.T) {
	const eps = 10
	st := New(Options{SealEps: eps, Shards: 4, Metrics: metrics.NewRegistry()})
	var p trajectory.Trajectory
	for i := 0; i < 100; i++ {
		p = append(p, trajectory.S(float64(i), float64(i*10), 0))
	}
	feed(t, st, "car", p)

	if _, err := st.SealBefore(50); err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{10, 49} {
		pos, ok := st.PositionAt("car", at)
		if !ok || pos.Dist(geo.Pt(at*10, 0)) > eps {
			t.Errorf("half sealed: PositionAt(%v) = %v, %t; want within %v m of (%v, 0)", at, pos, ok, eps, at*10)
		}
	}
	if pos, ok := st.PositionAt("car", 75); !ok || !pos.Equal(geo.Pt(750, 0)) {
		t.Errorf("half sealed: hot PositionAt(75) = %v, %t; want exactly (750, 0)", pos, ok)
	}

	if _, err := st.SealBefore(1000); err != nil {
		t.Fatal(err)
	}
	if got := st.IDs(); len(got) != 1 || got[0] != "car" {
		t.Errorf("all sealed: IDs = %v, want [car]", got)
	}
	if pos, ok := st.PositionAt("car", 10); !ok || pos.Dist(geo.Pt(100, 0)) > eps {
		t.Errorf("all sealed: PositionAt(10) = %v, %t", pos, ok)
	}
	if got := st.Query(geo.Rect{Min: geo.Pt(0, -1), Max: geo.Pt(1000, 1)}, 0, 99); len(got) != 1 || got[0] != "car" {
		t.Errorf("all sealed: Query = %v, want [car]", got)
	}
	if s := st.Stats(); s.Objects != 1 || s.SealedPoints == 0 || len(s.PointsPerObject) != 0 {
		t.Errorf("all sealed: Stats = %+v, want 1 object, sealed points and no hot breakdown", s)
	}
	if snap, ok := st.Snapshot("car"); ok {
		t.Errorf("all sealed: Snapshot = %v, want the empty hot tier", snap)
	}
}

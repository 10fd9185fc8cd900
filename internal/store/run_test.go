package store

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/geo"
	"repro/internal/gpsgen"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

// scanQuery is the brute-force oracle of Query: every segment of every
// object's Snapshot, and an object's only sample as a zero-length segment,
// tested by bounding box and time interval; with sealing, the cold tier's
// answer is merged in.
func scanQuery(st *Store, rect geo.Rect, t0, t1 float64) []string {
	hits := func(a, b trajectory.Sample) bool {
		return a.T <= t1 && t0 <= b.T && geo.Seg(a.Pos(), b.Pos()).Bounds().Intersects(rect)
	}
	var out []string
	for _, id := range st.IDs() {
		snap, ok := st.Snapshot(id)
		if !ok {
			continue
		}
		hit := snap.Len() == 1 && hits(snap[0], snap[0])
		for i := 0; !hit && i+1 < snap.Len(); i++ {
			hit = hits(snap[i], snap[i+1])
		}
		if hit {
			out = append(out, id)
		}
	}
	if st.cold != nil {
		out = mergeIDs(out, st.cold.QueryIDs(rect, t0, t1))
	}
	return out
}

// Query must answer exactly what a test of every segment answers, for both
// index kinds, one and many shards, raw and compressed stores, while the
// hot tier is cut by eviction and sealing between rounds of queries.
func TestQueryMatchesSegmentScan(t *testing.T) {
	const objects, fixes, rounds = 12, 720, 6
	fleet := gpsgen.New(3, gpsgen.Config{}).Fleet(objects, 5000, fixes*10)
	tEnd := 0.0
	for _, trip := range fleet {
		tEnd = max(tEnd, trip.EndTime())
	}
	opwtr := func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 30}) }
	for _, kind := range []IndexKind{IndexGrid, IndexRTree} {
		for _, shards := range []int{1, 8} {
			for _, comp := range []string{"none", "opwtr:30"} {
				for _, sealEps := range []float64{0, 10} {
					name := fmt.Sprintf("index=%d/shards=%d/%s/seal=%v", kind, shards, comp, sealEps)
					opts := Options{Index: kind, Shards: shards, SealEps: sealEps}
					if comp != "none" {
						opts.NewCompressor = opwtr
					}
					st := New(opts)
					rng := rand.New(rand.NewSource(int64(len(name))))
					next := make([]int, objects)
					for round := 1; round <= rounds; round++ {
						now := tEnd * float64(round) / rounds
						for i, trip := range fleet {
							for ; next[i] < trip.Len() && trip[next[i]].T <= now; next[i]++ {
								if err := st.Append(fmt.Sprintf("car-%d", i), trip[next[i]]); err != nil {
									t.Fatalf("%s: %v", name, err)
								}
							}
						}
						for q := 0; q < 60; q++ {
							c := geo.Pt(-1000+rng.Float64()*7000, -1000+rng.Float64()*7000)
							half := 5 + rng.Float64()*rng.Float64()*3000
							rect := geo.Rect{Min: geo.Pt(c.X-half, c.Y-half), Max: geo.Pt(c.X+half, c.Y+half)}
							t0 := rng.Float64() * now
							t1 := t0 + rng.Float64()*rng.Float64()*now/4
							if q%5 == 0 {
								t1 = t0
							}
							if got, want := st.Query(rect, t0, t1), scanQuery(st, rect, t0, t1); !slices.Equal(got, want) {
								t.Fatalf("%s, round %d: Query(%v, %v, %v) = %v, segment scan %v", name, round, rect, t0, t1, got, want)
							}
						}
						// Age the older part of the history between rounds,
						// alternating the two verbs where sealing is on.
						cut := now * (0.2 + 0.1*float64(round%3))
						if sealEps > 0 && round%2 == 0 {
							if _, err := st.SealBefore(cut); err != nil {
								t.Fatalf("%s: SealBefore: %v", name, err)
							}
						} else {
							st.EvictBefore(cut)
						}
					}
				}
			}
		}
	}
}

// indexEntries counts the grid entries of every shard: one per cell a run
// covers, one for an oversize run.
func indexEntries(t *testing.T, st *Store) int {
	t.Helper()
	n := 0
	for _, sh := range st.shards {
		g, ok := sh.index.(*gridIndex)
		if !ok {
			t.Fatal("not a grid store")
		}
		n += len(g.oversize)
		for _, es := range g.cells {
			n += len(es)
		}
	}
	return n
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// The index is registered per run, not per segment: on a compressed car
// fleet the grid holds fewer entries than half the retained points, and the
// whole hot tier (samples, runs, index, objects, compressors) costs at most
// 110 B of heap per retained point. Registering every segment in every cell
// it touches costs about 1.2 entries and 155 B per retained point on this
// fleet.
func TestRunIndexCostPerRetainedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 350 k-fix store")
	}
	fleet := gpsgen.New(1, gpsgen.Config{}).Fleet(100, 20000, 3500*10)
	factory, err := stream.ParseFactory("opwtr:30")
	if err != nil {
		t.Fatal(err)
	}
	h0 := heapAlloc()
	st := New(Options{NewCompressor: factory})
	for i, trip := range fleet {
		if _, err := st.AppendBatch(fmt.Sprintf("v%05d", i), trip); err != nil {
			t.Fatal(err)
		}
	}
	heap := float64(heapAlloc() - h0)
	retained := float64(st.Stats().RetainedPoints)
	entries := float64(indexEntries(t, st))
	t.Logf("%.0f retained points: %.3f index entries and %.1f B of heap per retained point",
		retained, entries/retained, heap/retained)
	if entries/retained > 0.5 {
		t.Errorf("%.3f index entries per retained point, want ≤ 0.5", entries/retained)
	}
	if heap/retained > 110 {
		t.Errorf("%.1f B of heap per retained point, want ≤ 110", heap/retained)
	}
	runtime.KeepAlive(fleet) // its samples are in both heap figures
	runtime.KeepAlive(st)
}

// An aged store indexes exactly as a store filled with only the surviving
// samples: eviction rebuilds the runs with the function appends use.
func TestAgedRunsEqualFreshRuns(t *testing.T) {
	fleet := gpsgen.New(5, gpsgen.Config{}).Fleet(6, 4000, 3000)
	for _, cell := range []float64{100, 1000} {
		aged := New(Options{CellSize: cell, Shards: 1})
		for i, trip := range fleet {
			if _, err := aged.AppendBatch(fmt.Sprint(i), trip); err != nil {
				t.Fatal(err)
			}
		}
		aged.EvictBefore(1300)
		fresh := New(Options{CellSize: cell, Shards: 1})
		for _, id := range aged.IDs() {
			ret, _ := aged.Retained(id)
			for _, s := range ret {
				if err := fresh.Restore(id, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		a, f := aged.shards[0], fresh.shards[0]
		if a.idxRuns != f.idxRuns || indexEntries(t, aged) != indexEntries(t, fresh) {
			t.Errorf("cell %v: aged store indexes %d runs in %d entries, fresh %d in %d",
				cell, a.idxRuns, indexEntries(t, aged), f.idxRuns, indexEntries(t, fresh))
		}
		for id, obj := range a.objects {
			other := f.objects[id]
			if !slices.Equal(obj.runs, other.runs) || obj.open != other.open {
				t.Errorf("cell %v, object %s: aged runs %v open %v, fresh %v open %v",
					cell, id, obj.runs, obj.open, other.runs, other.open)
			}
		}
	}
}

// A run closes at runSegments segments or before its box outgrows the cell;
// a single segment longer than the cell is a run of its own at once.
func TestRunClosesAtCapOrCellSize(t *testing.T) {
	st := New(Options{CellSize: 100, Shards: 1})
	var ss []trajectory.Sample
	for i := 0; i <= 2*runSegments; i++ { // 64 one-metre steps: two full runs
		ss = append(ss, trajectory.S(float64(i), float64(i), 0))
	}
	ss = append(ss,
		trajectory.S(100, 164, 0),  // a 100 m segment: one cell wide, its run stays open
		trajectory.S(101, 170, 0),  // would widen that run past 100 m: it closes first
		trajectory.S(102, 1000, 0), // longer than a cell: the 6 m run closes, then this one at once
	)
	if _, err := st.AppendBatch("a", ss); err != nil {
		t.Fatal(err)
	}
	obj := st.shards[0].objects["a"]
	var firsts []int
	for _, r := range obj.runs {
		firsts = append(firsts, r.first)
	}
	// Runs: [0,32], [32,64], [64,65], [65,66] (the long segment 66→67 alone), open [67].
	if want := []int{0, 32, 64, 65, 66}; !slices.Equal(firsts, want) || obj.open.first != 67 {
		t.Errorf("runs start at %v, open run at %d; want %v, 67", firsts, obj.open.first, want)
	}
	if got := st.shards[0].idxRuns; got != len(obj.runs) {
		t.Errorf("shard counts %d indexed runs, object holds %d", got, len(obj.runs))
	}
}

// FuzzStoreQuery drives a store through a random sequence of appends,
// EvictBefore, SealBefore and queries, over both index kinds, cell sizes of
// 100 and 1000 m, raw and compressed, and holds every Query to the segment
// scan. The first byte selects the configuration; each following 4-byte
// group is one operation: a verb, an object, and two coordinate bytes.
func FuzzStoreQuery(f *testing.F) {
	f.Add([]byte{0, 0, 0, 10, 10, 0, 0, 20, 30, 7, 0, 0, 0})
	f.Add([]byte{5, 1, 1, 200, 3, 2, 1, 100, 100, 5, 0, 9, 9, 7, 1, 50, 50, 6, 0, 1, 1, 7, 3, 0, 0})
	f.Add([]byte{15, 0, 2, 127, 127, 0, 2, 128, 128, 0, 2, 1, 255, 7, 2, 255, 0, 5, 2, 0, 0, 7, 2, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		cfg := ops[0]
		opts := Options{Index: IndexKind(cfg & 1), CellSize: 100, Shards: 1 + int(cfg>>4&1)*7}
		if cfg&2 != 0 {
			opts.CellSize = 1000
		}
		if cfg&4 != 0 {
			opts.NewCompressor = func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 30}) }
		}
		if cfg&8 != 0 {
			opts.SealEps = 5
		}
		st := New(opts)
		var pos [4]geo.Point
		clock := 0.0
		check := func(rect geo.Rect, t0, t1 float64) {
			if got, want := st.Query(rect, t0, t1), scanQuery(st, rect, t0, t1); !slices.Equal(got, want) {
				t.Fatalf("Query(%v, %v, %v) = %v, segment scan %v", rect, t0, t1, got, want)
			}
		}
		for ops = ops[1:]; len(ops) >= 4; ops = ops[4:] {
			clock++
			obj := int(ops[1] % 4)
			dx, dy := float64(int8(ops[2])), float64(int8(ops[3]))
			switch verb := ops[0] % 8; {
			case verb < 5: // steps of 1, 10, 100, 1000 and 10000 m per unit
				scale := []float64{1, 10, 100, 1000, 10000}[verb]
				pos[obj] = geo.Pt(pos[obj].X+dx*scale, pos[obj].Y+dy*scale)
				err := st.Append(fmt.Sprint(obj), trajectory.Sample{T: clock, X: pos[obj].X, Y: pos[obj].Y})
				if err != nil {
					t.Fatal(err)
				}
			case verb == 5:
				st.EvictBefore(clock - float64(ops[2]%32))
			case verb == 6:
				if _, err := st.SealBefore(clock - float64(ops[2]%32)); err != nil && !errors.Is(err, ErrSealDisabled) {
					t.Fatal(err)
				}
			default:
				c := pos[obj]
				half := float64(ops[2]) * float64(ops[2]) * 0.5
				t0 := clock - float64(ops[3]%64)
				check(geo.Rect{Min: geo.Pt(c.X-half, c.Y-half), Max: geo.Pt(c.X+half, c.Y+half)}, t0, t0+float64(ops[3]/64*8))
			}
		}
		check(geo.Rect{Min: geo.Pt(-1e7, -1e7), Max: geo.Pt(1e7, 1e7)}, 0, clock)
	})
}

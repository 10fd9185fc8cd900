package store

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/geo"
	"repro/internal/gpsgen"
	"repro/internal/metrics"
	"repro/internal/sed"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

func feed(t *testing.T, st *Store, id string, p trajectory.Trajectory) {
	t.Helper()
	for _, s := range p {
		if err := st.Append(id, s); err != nil {
			t.Fatalf("append %q: %v", id, err)
		}
	}
}

func TestAppendAndSnapshotRaw(t *testing.T) {
	st := New(Options{})
	g := gpsgen.New(1, gpsgen.Config{})
	p := g.Trip(gpsgen.Urban, 600)
	feed(t, st, "car", p)

	snap, ok := st.Snapshot("car")
	if !ok {
		t.Fatal("object missing")
	}
	if snap.Len() != p.Len() {
		t.Errorf("raw store kept %d of %d points", snap.Len(), p.Len())
	}
	if _, ok := st.Snapshot("ghost"); ok {
		t.Error("unknown object answered")
	}
}

func TestAppendValidation(t *testing.T) {
	st := New(Options{})
	if err := st.Append("a", trajectory.S(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("a", trajectory.S(1, 1, 1)); !errors.Is(err, trajectory.ErrUnsorted) {
		t.Errorf("duplicate time: %v", err)
	}
	if err := st.Append("a", trajectory.S(2, math.NaN(), 0)); !errors.Is(err, trajectory.ErrNotFinite) {
		t.Errorf("NaN: %v", err)
	}
	// Other objects are unaffected.
	if err := st.Append("b", trajectory.S(0.5, 0, 0)); err != nil {
		t.Errorf("independent object rejected: %v", err)
	}
}

func TestOnIngestCompression(t *testing.T) {
	const eps = 50.0
	st := New(Options{
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: eps}) },
	})
	g := gpsgen.New(2, gpsgen.Config{})
	p := g.Trip(gpsgen.Urban, 1800)
	feed(t, st, "car", p)

	stats := st.Stats()
	if stats.RawPoints != p.Len() {
		t.Errorf("raw points %d, want %d", stats.RawPoints, p.Len())
	}
	if stats.CompressionPct < 20 {
		t.Errorf("compression only %.1f%%, expected substantial reduction", stats.CompressionPct)
	}

	// The stored trajectory stays within the OPW-TR error bound over the
	// finalized portion.
	snap, _ := st.Snapshot("car")
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	if !snap.IsVertexSubsetOf(p) {
		t.Fatal("snapshot not a subsequence of the input")
	}
	worst, err := sed.MaxError(p, snap)
	if err != nil {
		t.Fatal(err)
	}
	if worst > eps+1e-9 {
		t.Errorf("stored trajectory max sync error %.2f exceeds %.0f", worst, eps)
	}
}

func TestSnapshotIncludesLatestPosition(t *testing.T) {
	st := New(Options{
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 1e9}) },
	})
	// With a huge threshold, the compressor buffers everything after the
	// first point — but the snapshot must still expose the newest fix.
	for i := 0; i < 10; i++ {
		if err := st.Append("car", trajectory.S(float64(i), float64(i*10), 0)); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := st.Snapshot("car")
	if snap[snap.Len()-1].T != 9 {
		t.Errorf("snapshot tail t=%v, want 9", snap[snap.Len()-1].T)
	}
	if pos, ok := st.PositionAt("car", 9); !ok || !pos.AlmostEqual(geo.Pt(90, 0), 1e-9) {
		t.Errorf("PositionAt(9) = %v, %v", pos, ok)
	}
}

func TestPositionAt(t *testing.T) {
	st := New(Options{})
	feed(t, st, "car", trajectory.MustNew([]trajectory.Sample{
		trajectory.S(0, 0, 0), trajectory.S(10, 100, 0),
	}))
	if pos, ok := st.PositionAt("car", 5); !ok || !pos.AlmostEqual(geo.Pt(50, 0), 1e-9) {
		t.Errorf("PositionAt(5) = %v, %v", pos, ok)
	}
	if _, ok := st.PositionAt("car", 11); ok {
		t.Error("time beyond span answered")
	}
	if _, ok := st.PositionAt("ghost", 5); ok {
		t.Error("unknown object answered")
	}
}

// The paper's "known margins of error": under an OPW-TR compressor the true
// (raw) position always lies within the threshold of PositionAt's answer.
func TestPositionAtWithinCompressorBound(t *testing.T) {
	const eps = 40.0
	st := New(Options{
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: eps}) },
	})
	g := gpsgen.New(7, gpsgen.Config{})
	p := g.Trip(gpsgen.Urban, 1200)
	feed(t, st, "car", p)

	for _, tt := range []float64{100, 300, 500, 700, 900} {
		pos, ok := st.PositionAt("car", tt)
		if !ok {
			t.Fatalf("no position at t=%v", tt)
		}
		truth, ok := p.LocAt(tt)
		if !ok {
			t.Fatalf("no truth at t=%v", tt)
		}
		if d := truth.Dist(pos); d > eps+1e-9 {
			t.Errorf("t=%v: true position %.2f m from answer, beyond the bound %v", tt, d, eps)
		}
	}
}

func TestQuery(t *testing.T) {
	st := New(Options{CellSize: 100})
	// Object A crosses the query window in space and time; B is elsewhere;
	// C passes through the right place at the wrong time.
	feed(t, st, "a", trajectory.MustNew([]trajectory.Sample{
		trajectory.S(0, 0, 0), trajectory.S(10, 500, 0),
	}))
	feed(t, st, "b", trajectory.MustNew([]trajectory.Sample{
		trajectory.S(0, 0, 5000), trajectory.S(10, 500, 5000),
	}))
	feed(t, st, "c", trajectory.MustNew([]trajectory.Sample{
		trajectory.S(100, 0, 0), trajectory.S(110, 500, 0),
	}))
	rect := geo.Rect{Min: geo.Pt(200, -50), Max: geo.Pt(300, 50)}

	got := st.Query(rect, 0, 20)
	if len(got) != 1 || got[0] != "a" {
		t.Errorf("Query = %v, want [a]", got)
	}
	got = st.Query(rect, 90, 120)
	if len(got) != 1 || got[0] != "c" {
		t.Errorf("Query(later) = %v, want [c]", got)
	}
	if got = st.Query(rect, 30, 60); len(got) != 0 {
		t.Errorf("Query(gap) = %v, want empty", got)
	}
	if got = st.Query(geo.EmptyRect(), 0, 20); len(got) != 0 {
		t.Errorf("empty rect query = %v", got)
	}
}

func TestQuerySeesBufferedTail(t *testing.T) {
	st := New(Options{
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 1e9}) },
	})
	// Everything after the first fix is buffered inside the compressor.
	feed(t, st, "car", trajectory.MustNew([]trajectory.Sample{
		trajectory.S(0, 0, 0), trajectory.S(10, 1000, 0),
	}))
	rect := geo.Rect{Min: geo.Pt(900, -10), Max: geo.Pt(1100, 10)}
	if got := st.Query(rect, 0, 20); len(got) != 1 || got[0] != "car" {
		t.Errorf("buffered tail invisible to Query: %v", got)
	}
}

// An object known by one fix has no indexed segment and no buffered tail
// beyond its one retained sample; Query and QueryWithTolerance must still
// find it, as a zero-length segment, the way RangePoints, Nearest and
// PositionAt do.
func TestQuerySeesLoneRetainedSample(t *testing.T) {
	rect := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(10, 10)}
	elsewhere := geo.Rect{Min: geo.Pt(20, 20), Max: geo.Pt(30, 30)}
	opwtr := func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 30}) }
	for name, opts := range map[string]Options{
		"grid":        {Index: IndexGrid},
		"rtree":       {Index: IndexRTree},
		"grid+opwtr":  {Index: IndexGrid, NewCompressor: opwtr},
		"rtree+opwtr": {Index: IndexRTree, NewCompressor: opwtr},
	} {
		for _, shape := range []struct {
			name string
			fill func(st *Store)
		}{
			{"one fix", func(st *Store) {
				feed(t, st, "b", trajectory.Trajectory{trajectory.S(20, 5, 5)})
			}},
			{"cut down to one sample by EvictBefore", func(st *Store) {
				feed(t, st, "b", trajectory.Trajectory{trajectory.S(0, 500, 500), trajectory.S(10, 900, 100), trajectory.S(20, 5, 5)})
				// Raw store: one retained sample survives. Behind a
				// compressor the survivor is the buffered newest fix.
				st.EvictBefore(15)
			}},
		} {
			st := New(opts)
			shape.fill(st)
			if snap, _ := st.Snapshot("b"); opts.NewCompressor == nil && snap.Len() != 1 {
				t.Fatalf("%s, %s: fixture holds %v, want one sample", name, shape.name, snap)
			}
			for _, q := range []struct {
				what   string
				got    []string
				wantIn bool
			}{
				{"Query", st.Query(rect, 15, 25), true},
				{"Query at the sample's instant", st.Query(rect, 20, 20), true},
				{"QueryWithTolerance from 15 m away", st.QueryWithTolerance(elsewhere, 15, 25, 16), true},
				{"Query before the sample", st.Query(rect, 15, 19), false},
				{"Query after the sample", st.Query(rect, 21, 25), false},
				{"Query elsewhere", st.Query(elsewhere, 15, 25), false},
			} {
				if in := len(q.got) == 1 && q.got[0] == "b"; in != q.wantIn || len(q.got) > 1 {
					t.Errorf("%s, %s: %s = %v, want b in it: %v", name, shape.name, q.what, q.got, q.wantIn)
				}
			}
		}
	}
}

func TestIDsAndStats(t *testing.T) {
	st := New(Options{})
	feed(t, st, "zebra", trajectory.MustNew([]trajectory.Sample{trajectory.S(0, 0, 0)}))
	feed(t, st, "ant", trajectory.MustNew([]trajectory.Sample{trajectory.S(0, 0, 0)}))
	ids := st.IDs()
	if len(ids) != 2 || ids[0] != "ant" || ids[1] != "zebra" {
		t.Errorf("IDs = %v", ids)
	}
	s := st.Stats()
	if s.Objects != 2 || s.RawPoints != 2 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestConcurrentAppendAndQuery(t *testing.T) {
	st := New(Options{
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 30}) },
	})
	g := gpsgen.New(4, gpsgen.Config{})
	trips := make([]trajectory.Trajectory, 8)
	for i := range trips {
		trips[i] = g.Trip(gpsgen.Urban, 300)
	}
	var wg sync.WaitGroup
	for i, p := range trips {
		wg.Add(1)
		go func(id string, p trajectory.Trajectory) {
			defer wg.Done()
			for _, s := range p {
				if err := st.Append(id, s); err != nil {
					t.Errorf("append %s: %v", id, err)
					return
				}
			}
		}(fmt.Sprintf("car-%d", i), p)
	}
	// Concurrent readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				st.Query(geo.Rect{Min: geo.Pt(-1e4, -1e4), Max: geo.Pt(1e4, 1e4)}, 0, 1e6)
				st.Stats()
				st.IDs()
			}
		}()
	}
	wg.Wait()
	if got := st.Stats().Objects; got != len(trips) {
		t.Errorf("objects = %d, want %d", got, len(trips))
	}
}

// TestStoreMetrics checks the store's instruments end to end against a
// private registry: append/evict/query counters, the gauges' delta
// discipline, and the per-kind query latency histograms.
func TestStoreMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	st := New(Options{
		NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 25}) },
		Metrics:       reg,
		SealEps:       10,
	})
	for i := 0; i < 50; i++ {
		feed(t, st, "a", trajectory.Trajectory{trajectory.S(float64(i), float64(i*10), 0)})
	}
	feed(t, st, "b", trajectory.Trajectory{trajectory.S(0, 5000, 5000), trajectory.S(10, 5100, 5000)})
	if err := st.Append("a", trajectory.S(10, 0, 0)); err == nil {
		t.Fatal("unsorted append did not fail")
	}

	st.Query(geo.Rect{Min: geo.Pt(-1, -1), Max: geo.Pt(1, 1)}, 0, 100)
	st.QueryWithTolerance(geo.Rect{Min: geo.Pt(-1, -1), Max: geo.Pt(1, 1)}, 0, 100, 30)
	st.PositionAt("a", 5)
	st.Nearest(geo.Pt(0, 0), 5, 1)

	want := map[string]float64{
		"store_appends_total":       52,
		"store_append_errors_total": 1,
		"store_objects":             2,
	}
	counts := map[string]int64{}
	for _, m := range reg.Snapshot() {
		if v, ok := want[m.Name]; ok && m.Value != v {
			t.Errorf("%s = %v, want %v", m.Name, m.Value, v)
		}
		if m.Name == "store_query_seconds" {
			counts[m.Labels[0].Value] = m.Count
		}
	}
	for _, kind := range []string{"range", "tolerance", "nearest", "position"} {
		// Nearest and QueryWithTolerance route through PositionAt/queryIDs
		// without re-timing, so each kind observes exactly once — except
		// position, which Nearest's snapshot path does not touch.
		if counts[kind] != 1 {
			t.Errorf("store_query_seconds{kind=%q} count = %d, want 1", kind, counts[kind])
		}
	}

	// The index gauge counts the closed runs, which a zigzag that the
	// compressor keeps almost whole fills.
	for i := 0; i < 200; i++ {
		feed(t, st, "c", trajectory.Trajectory{trajectory.S(float64(i), float64(i*20), float64(i%2*100))})
	}
	indexRuns := func(when string) {
		t.Helper()
		runs := 0
		for _, sh := range st.shards {
			for _, obj := range sh.objects {
				runs += len(obj.runs)
			}
		}
		gauge := -1.0
		for _, m := range reg.Snapshot() {
			if m.Name == "store_index_runs" {
				gauge = m.Value
			}
		}
		if runs == 0 || int(gauge) != runs {
			t.Errorf("%s: store_index_runs = %v, want %d closed runs (> 0)", when, gauge, runs)
		}
	}
	indexRuns("after appends")

	// Eviction publishes deltas: the retained gauge must equal the store's
	// own accounting afterwards.
	removed := st.EvictBefore(5)
	indexRuns("after EvictBefore")
	stats := st.Stats()
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "store_evictions_total":
			if m.Value != 1 {
				t.Errorf("store_evictions_total = %v, want 1", m.Value)
			}
		case "store_evicted_samples_total":
			if int(m.Value) != removed {
				t.Errorf("store_evicted_samples_total = %v, want %d", m.Value, removed)
			}
		case "store_retained_samples":
			if int(m.Value) != stats.RetainedPoints {
				t.Errorf("store_retained_samples = %v, want %d", m.Value, stats.RetainedPoints)
			}
		case "store_objects":
			if int(m.Value) != stats.Objects {
				t.Errorf("store_objects = %v, want %d", m.Value, stats.Objects)
			}
		}
	}
	if _, err := st.SealBefore(100); err != nil {
		t.Fatal(err)
	}
	indexRuns("after SealBefore")
}

// TestStatsPointsPerObject checks the per-object breakdown sums to the
// retained total from the same snapshot.
func TestStatsPointsPerObject(t *testing.T) {
	st := New(Options{})
	feed(t, st, "x", trajectory.Trajectory{trajectory.S(0, 0, 0), trajectory.S(1, 1, 0)})
	feed(t, st, "y", trajectory.Trajectory{trajectory.S(0, 9, 9)})
	s := st.Stats()
	if s.PointsPerObject["x"] != 2 || s.PointsPerObject["y"] != 1 {
		t.Errorf("PointsPerObject = %v, want x:2 y:1", s.PointsPerObject)
	}
	sum := 0
	for _, n := range s.PointsPerObject {
		sum += n
	}
	if sum != s.RetainedPoints {
		t.Errorf("breakdown sums to %d, want %d", sum, s.RetainedPoints)
	}
}

// TestAppendBatchKeepsNoReferenceToTheBatch pins the Backend.AppendBatch
// contract the server relies on when it reuses one sample buffer for every
// MAPPEND of a connection: once AppendBatch returns, the caller may
// overwrite the slice without changing what the store holds.
func TestAppendBatchKeepsNoReferenceToTheBatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"raw", Options{}},
		{"opwtr", Options{NewCompressor: func() stream.Compressor { return stream.New(compress.OPWTR{Threshold: 1}) }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := New(tc.opts)
			batch := make([]trajectory.Sample, 32)
			for i := range batch {
				batch[i] = trajectory.S(float64(i), float64(i*i), float64(i%5))
			}
			if _, err := st.AppendBatch("a", batch); err != nil {
				t.Fatal(err)
			}
			want, _ := st.Snapshot("a")
			wantStats := st.Stats()
			for i := range batch {
				batch[i] = trajectory.S(-1, 1e9, 1e9)
			}
			got, _ := st.Snapshot("a")
			if !slices.Equal(got, want) {
				t.Fatalf("snapshot after the caller overwrote its batch:\n got %v\nwant %v", got, want)
			}
			if gotStats := st.Stats(); !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("stats after the caller overwrote its batch: %+v, want %+v", gotStats, wantStats)
			}
		})
	}
}

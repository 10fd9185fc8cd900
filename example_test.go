package trajcomp_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"

	trajcomp "repro"
)

// A trajectory is a series of time-stamped positions; compressing it with
// the paper's TD-TR algorithm keeps the synchronized error under the
// threshold while discarding redundant points.
func ExampleNewTDTR() {
	// An object that crawls, then sprints along a straight road. Spatially
	// it is a perfect line, but its timing is far from uniform.
	p := trajcomp.Trajectory{
		trajcomp.S(0, 0, 0),
		trajcomp.S(60, 60, 0),  // 1 m/s crawl
		trajcomp.S(70, 310, 0), // 25 m/s sprint
		trajcomp.S(80, 560, 0),
		trajcomp.S(90, 810, 0),
	}
	a := trajcomp.NewTDTR(30).Compress(p)
	e, _ := trajcomp.AvgError(p, a)
	fmt.Printf("kept %d of %d points, error %.1f m\n", a.Len(), p.Len(), e)
	// Output:
	// kept 3 of 5 points, error 0.0 m
}

// Classic Douglas-Peucker sees only the line's shape: it collapses the same
// trajectory to its endpoints and commits a large synchronized error.
func ExampleNewDouglasPeucker() {
	p := trajcomp.Trajectory{
		trajcomp.S(0, 0, 0),
		trajcomp.S(60, 60, 0),
		trajcomp.S(70, 310, 0),
		trajcomp.S(80, 560, 0),
		trajcomp.S(90, 810, 0),
	}
	a := trajcomp.NewDouglasPeucker(30).Compress(p)
	e, _ := trajcomp.AvgError(p, a)
	fmt.Printf("kept %d of %d points, error %.0f m\n", a.Len(), p.Len(), e)
	// Output:
	// kept 2 of 5 points, error 240 m
}

// The synchronized distance is the paper's Eq. 1–2: where the approximation
// says the object should be at the original point's timestamp.
func ExampleSyncDistance() {
	start := trajcomp.S(0, 0, 0)
	end := trajcomp.S(10, 100, 0)
	// At t=9 the object has only reached x=10; the segment expects x'=90.
	d := trajcomp.SyncDistance(trajcomp.S(9, 10, 0), start, end)
	fmt.Printf("%.0f m\n", d)
	// Output:
	// 80 m
}

// Online compression emits retained points as their fate becomes definite.
func ExampleCollect() {
	var p trajcomp.Trajectory
	for i := 0; i <= 10; i++ {
		p = append(p, trajcomp.S(float64(i), float64(i*10), 0))
	}
	// Constant-velocity motion: everything between the endpoints drops.
	a, _ := trajcomp.Collect(trajcomp.NewOnlineOPWTR(5, 0), p)
	fmt.Println(a.Len(), "points retained")
	// Output:
	// 2 points retained
}

// Algorithms are also constructable from compact textual specs (CLI-style).
func ExampleParseAlgorithm() {
	alg, err := trajcomp.ParseAlgorithm("opwsp:30:5")
	if err != nil {
		panic(err)
	}
	fmt.Println(alg.Name())
	// Output:
	// OPW-SP(5m/s)
}

// The moving-object store answers spatiotemporal range queries over
// compressed trajectories.
func ExampleStore() {
	st := trajcomp.NewStore(trajcomp.StoreOptions{})
	for i := 0; i <= 10; i++ {
		_ = st.Append("bus", trajcomp.S(float64(i*10), float64(i*100), 0))
	}
	hits := st.Query(trajcomp.Rect{
		Min: trajcomp.Point{X: 450, Y: -50},
		Max: trajcomp.Point{X: 550, Y: 50},
	}, 0, 100)
	fmt.Println(hits)
	// Output:
	// [bus]
}

// An embedded store exposes its observability through a metrics registry:
// pass one in StoreOptions.Metrics and read a snapshot back. A perfectly
// straight constant-speed stream compresses to its endpoints, and the live
// counters show the compression happening.
func ExampleNewStore_metrics() {
	reg := trajcomp.NewMetricsRegistry()
	st := trajcomp.NewStore(trajcomp.StoreOptions{
		NewCompressor: func() trajcomp.Compressor { return trajcomp.NewOnlineOPWTR(25, 0) },
		Metrics:       reg,
	})
	for i := 0; i < 100; i++ {
		_ = st.Append("car", trajcomp.S(float64(i), float64(i*10), 0))
	}
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "store_appends_total", "stream_points_in_total",
			"stream_points_out_total", "stream_buffered_samples":
			fmt.Printf("%s %.0f\n", m.Name, m.Value)
		}
	}
	// Output:
	// store_appends_total 100
	// stream_buffered_samples 100
	// stream_points_in_total 100
	// stream_points_out_total 1
}

// A durable store logs what its compressor retains to a write-ahead log;
// Close seals each object's newest position into it, and reopening the log
// recovers the same queryable trajectories.
func ExampleOpenDurableStore() {
	dir, err := os.MkdirTemp("", "trajcomp-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "fleet.wal")
	opts := trajcomp.StoreOptions{
		NewCompressor: func() trajcomp.Compressor { return trajcomp.NewOnlineOPWTR(30, 0) },
	}

	st, err := trajcomp.OpenDurableStore(path, opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range trajcomp.GenerateTrip(7, trajcomp.Urban, 600) {
		if err := st.Append("car", s); err != nil {
			log.Fatal(err)
		}
	}
	before, _ := st.Snapshot("car")
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}

	reopened, err := trajcomp.OpenDurableStore(path, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	after, _ := reopened.Snapshot("car")
	fmt.Println(before.Len() > 2, reflect.DeepEqual(before, after))
	// Output:
	// true true
}

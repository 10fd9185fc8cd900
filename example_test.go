package trajcomp_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"

	trajcomp "repro"
)

// A trajectory is a series of time-stamped positions; compressing it with
// the paper's TD-TR algorithm keeps the synchronized error under the
// threshold while discarding redundant points.
func ExampleParseAlgorithm_tdtr() {
	// An object that crawls, then sprints along a straight road. Spatially
	// it is a perfect line, but its timing is far from uniform.
	p := trajcomp.Trajectory{
		trajcomp.S(0, 0, 0),
		trajcomp.S(60, 60, 0),  // 1 m/s crawl
		trajcomp.S(70, 310, 0), // 25 m/s sprint
		trajcomp.S(80, 560, 0),
		trajcomp.S(90, 810, 0),
	}
	alg, err := trajcomp.ParseAlgorithm("tdtr:30")
	if err != nil {
		log.Fatal(err)
	}
	a := alg.Compress(p)
	e, _ := trajcomp.AvgError(p, a)
	fmt.Printf("kept %d of %d points, error %.1f m\n", a.Len(), p.Len(), e)
	// Output:
	// kept 3 of 5 points, error 0.0 m
}

// Classic Douglas-Peucker sees only the line's shape: it collapses the same
// trajectory to its endpoints and commits a large synchronized error.
func ExampleParseAlgorithm_ndp() {
	p := trajcomp.Trajectory{
		trajcomp.S(0, 0, 0),
		trajcomp.S(60, 60, 0),
		trajcomp.S(70, 310, 0),
		trajcomp.S(80, 560, 0),
		trajcomp.S(90, 810, 0),
	}
	alg, err := trajcomp.ParseAlgorithm("ndp:30")
	if err != nil {
		log.Fatal(err)
	}
	a := alg.Compress(p)
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
	newCompressor, err := trajcomp.ParseOnline("opwtr:5")
	if err != nil {
		log.Fatal(err)
	}
	// Constant-velocity motion: everything between the endpoints drops.
	a, _ := trajcomp.Collect(newCompressor(), p)
	fmt.Println(a.Len(), "points retained")
	// Output:
	// 2 points retained
}

// Algorithms are built from compact textual specs, the same grammar the
// command-line tools and the server take.
func ExampleParseAlgorithm() {
	alg, err := trajcomp.ParseAlgorithm("opwsp:30:5")
	if err != nil {
		log.Fatal(err)
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
	newCompressor, err := trajcomp.ParseOnline("opwtr:25")
	if err != nil {
		log.Fatal(err)
	}
	reg := trajcomp.NewMetricsRegistry()
	st := trajcomp.NewStore(trajcomp.StoreOptions{NewCompressor: newCompressor, Metrics: reg})
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
	newCompressor, err := trajcomp.ParseOnline("opwtr:30")
	if err != nil {
		log.Fatal(err)
	}
	opts := trajcomp.StoreOptions{NewCompressor: newCompressor}

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

// Quickstart: compress one car trajectory with every algorithm family and
// compare compression rate against the paper's time-synchronized error.
// The time-ratio algorithms (TD-TR, OPW-TR, OPW-SP) keep the synchronized
// error within the 30 m tolerance; the spatial-only ones, blind to the
// time axis, commit an order of magnitude more.
func Example_quickstart() {
	// A 30-minute synthetic urban car trip, sampled every 10 s with GPS
	// noise (the paper's data regime).
	p := trajcomp.GenerateTrip(42, trajcomp.Urban, 30*60)
	fmt.Printf("original trajectory: %s\n\n", trajcomp.Summarize(p))

	fmt.Println("algorithm        kept     compression   sync avg err   sync max err")
	for _, spec := range []string{
		"uniform:3",
		"ndp:30", // spatial only: ignores time
		"nopw:30",
		"tdtr:30", // the paper's time-ratio algorithms
		"opwtr:30",
		"opwsp:30:5", // + speed-difference criterion
	} {
		alg, err := trajcomp.ParseAlgorithm(spec)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := trajcomp.Evaluate(alg.Name(), p, alg.Compress(p))
		if err != nil {
			log.Fatalf("evaluate %s: %v", alg.Name(), err)
		}
		fmt.Printf("%-16s %4d/%-4d   %8.1f %%   %9.1f m   %9.1f m\n",
			rep.Algorithm, rep.CompressedLen, rep.OriginalLen,
			rep.CompressionPct, rep.SyncAvgError, rep.SyncMaxError)
	}
	// Output:
	// original trajectory: duration 00:29:50, speed 30.21 km/h, length 15.02 km, displacement 7.26 km, 180 points
	//
	// algorithm        kept     compression   sync avg err   sync max err
	// Uniform(3)         61/180        66.1 %        23.0 m       109.5 m
	// NDP                13/180        92.8 %        85.5 m       345.4 m
	// NOPW               55/180        69.4 %        65.2 m       382.8 m
	// TD-TR              68/180        62.2 %         6.5 m        29.0 m
	// OPW-TR            121/180        32.8 %         2.9 m        28.3 m
	// OPW-SP(5m/s)      123/180        31.7 %         2.6 m        24.5 m
}

// Fleet monitor: the paper's motivating scenario — many vehicles streaming
// time-stamped positions into a moving-object store. Positions are
// compressed on ingest with the online OPW-SP algorithm, keeping storage
// bounded while rush-hour analysis queries keep working.
func Example_fleetmonitor() {
	const (
		fleetSize    = 25
		tripDuration = 45 * 60 // seconds
	)
	// 40 m of synchronized error and a 5 m/s speed-difference threshold.
	newCompressor, err := trajcomp.ParseOnline("opwsp:40:5")
	if err != nil {
		log.Fatal(err)
	}
	st := trajcomp.NewStore(trajcomp.StoreOptions{NewCompressor: newCompressor, CellSize: 500})

	// Simulate the fleet: interleave the vehicles' GPS fixes as they would
	// arrive at a tracking server.
	fleet := make([]trajcomp.Trajectory, fleetSize)
	for i := range fleet {
		kind := []trajcomp.TripKind{trajcomp.Urban, trajcomp.Mixed, trajcomp.Rural}[i%3]
		trip := trajcomp.GenerateTrip(int64(1000+i), kind, tripDuration)
		// Scatter the depots across the metro area so trips start all over
		// town rather than at a common origin.
		dx := float64((i%5)-2) * 4000
		dy := float64((i/5)-2) * 4000
		fleet[i] = trip.Shift(0, dx, dy)
	}
	for tick := 0; ; tick++ {
		any := false
		for v, p := range fleet {
			if tick < p.Len() {
				any = true
				if err := st.Append(fmt.Sprintf("vehicle-%02d", v), p[tick]); err != nil {
					log.Fatalf("ingest: %v", err)
				}
			}
		}
		if !any {
			break
		}
	}

	stats := st.Stats()
	fmt.Printf("fleet of %d vehicles, %d GPS fixes ingested\n", stats.Objects, stats.RawPoints)
	fmt.Printf("retained after on-ingest OPW-SP(40m, 5m/s): %d points (%.1f%% compression)\n\n",
		stats.RetainedPoints, stats.CompressionPct)

	// Rush-hour analysis: which vehicles passed through the city-centre
	// district during the first quarter hour?
	centre := trajcomp.Rect{
		Min: trajcomp.Point{X: -2000, Y: -2000},
		Max: trajcomp.Point{X: 2000, Y: 2000},
	}
	hits := st.Query(centre, 0, 15*60)
	fmt.Printf("vehicles inside the 4×4 km centre during the first 15 min: %d\n", len(hits))
	for _, id := range hits {
		if pos, ok := st.PositionAt(id, 10*60); ok {
			fmt.Printf("  %s was at (%.0f, %.0f) m at t=10 min\n", id, pos.X, pos.Y)
		}
	}

	// Reconstructed positions stay within the configured tolerance of the
	// true (raw) movement — spot-check one vehicle.
	raw := fleet[0]
	snap, _ := st.Snapshot("vehicle-00")
	maxErr, err := trajcomp.MaxError(raw, snap)
	if err != nil {
		log.Fatalf("error metric: %v", err)
	}
	fmt.Printf("\nvehicle-00: stored %d of %d fixes, max synchronized error %.1f m (tolerance 40 m)\n",
		snap.Len(), raw.Len(), maxErr)
	// Output:
	// fleet of 25 vehicles, 6750 GPS fixes ingested
	// retained after on-ingest OPW-SP(40m, 5m/s): 3086 points (54.3% compression)
	//
	// vehicles inside the 4×4 km centre during the first 15 min: 3
	//   vehicle-11 was at (809, -4422) m at t=10 min
	//   vehicle-12 was at (-596, 5210) m at t=10 min
	//   vehicle-20 was at (-4404, 2003) m at t=10 min
	//
	// vehicle-00: stored 141 of 270 fixes, max synchronized error 39.7 m (tolerance 40 m)
}

// Wildlife tracking: batch-compress long, sparsely sampled animal tracks
// and export the result as GeoJSON for display on a map — the archival
// use case of the paper's introduction (migratory animals).
func Example_wildlife() {
	// Sparse fixes (every 2 minutes, coarse error) over long journeys: a
	// collar trades accuracy for battery. The generator's "rural" regime —
	// long straight legs at sustained speed with occasional direction
	// changes — is a reasonable stand-in for migratory movement.
	gen := trajcomp.NewGenerator(7, trajcomp.GenConfig{
		SampleInterval: 120,
		NoiseSigma:     25,
		RuralBlock:     5000,
		RuralSpeed:     15,
	})
	// Archive at a 250 m synchronized tolerance: generous for
	// continental-scale analysis, tight enough to preserve staging stops
	// (where the animal's clock diverges from straight-line interpolation).
	alg, err := trajcomp.ParseAlgorithm("tdtr:250")
	if err != nil {
		log.Fatal(err)
	}

	var archive []trajcomp.Named
	var rawPts, keptPts int
	for i, name := range []string{"stork-f03", "stork-m11", "crane-a27"} {
		track := gen.Trip(trajcomp.Rural, float64(6+i)*3600) // 6–8 h legs
		kept := alg.Compress(track)
		avg, err := trajcomp.AvgError(track, kept)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%s: %d → %d fixes (%.1f%% compression), α = %.0f m\n",
			name, track.Len(), kept.Len(),
			trajcomp.CompressionRate(track.Len(), kept.Len()), avg)
		rawPts += track.Len()
		keptPts += kept.Len()
		archive = append(archive, trajcomp.Named{ID: name, Traj: kept})
	}
	fmt.Printf("archive total: %d → %d fixes\n", rawPts, keptPts)

	// Export for mapping, georeferenced near the Wadden Sea staging area.
	proj, err := trajcomp.NewProjector(trajcomp.LatLon{Lat: 53.37, Lon: 5.22})
	if err != nil {
		log.Fatal(err)
	}
	var doc bytes.Buffer
	if err := trajcomp.EncodeGeoJSON(&doc, archive, proj); err != nil {
		log.Fatal(err)
	}
	var fc struct {
		Type     string
		Features []json.RawMessage
	}
	if err := json.Unmarshal(doc.Bytes(), &fc); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GeoJSON %s with %d features\n", fc.Type, len(fc.Features))
	// Output:
	// stork-f03: 180 → 45 fixes (75.0% compression), α = 60 m
	// stork-m11: 210 → 52 fixes (75.2% compression), α = 56 m
	// crane-a27: 240 → 64 fixes (73.3% compression), α = 59 m
	// archive total: 630 → 161 fixes
	// GeoJSON FeatureCollection with 3 features
}

// Bandwidth: quantify the storage/transmission argument of the paper's
// introduction ("100 Mb of storage ... for just over 400 objects for a
// single day") by measuring the actual bytes for one day of fleet data
// under each representation.
func Example_bandwidth() {
	// One day of commuting for a small fleet: two 40-minute trips per
	// vehicle, fixes every 10 s.
	const vehicles = 20
	var fleet []trajcomp.Named
	for v := 0; v < vehicles; v++ {
		gen := trajcomp.NewGenerator(int64(v), trajcomp.GenConfig{})
		morning := gen.Trip(trajcomp.Mixed, 40*60)
		evening := gen.Trip(trajcomp.Mixed, 40*60).Shift(10*3600, 0, 0)
		day := append(morning.Clone(), evening...)
		fleet = append(fleet, trajcomp.Named{ID: fmt.Sprintf("car-%02d", v), Traj: day})
	}

	size := func(ts []trajcomp.Named, enc func(*bytes.Buffer, []trajcomp.Named) error) int {
		var buf bytes.Buffer
		if err := enc(&buf, ts); err != nil {
			log.Fatal(err)
		}
		return buf.Len()
	}
	csvEnc := func(b *bytes.Buffer, ts []trajcomp.Named) error { return trajcomp.EncodeCSV(b, ts) }
	binEnc := func(b *bytes.Buffer, ts []trajcomp.Named) error { return trajcomp.EncodeFile(b, ts) }
	zipEnc := func(b *bytes.Buffer, ts []trajcomp.Named) error { return trajcomp.EncodeFileCompressed(b, ts) }

	var points int
	for _, n := range fleet {
		points += n.Traj.Len()
	}
	rawCSV := size(fleet, csvEnc)
	rawBin := size(fleet, binEnc)

	// Lossy compression with the paper's OPW-TR at a 30 m tolerance.
	alg, err := trajcomp.ParseAlgorithm("opwtr:30")
	if err != nil {
		log.Fatal(err)
	}
	compressed := make([]trajcomp.Named, len(fleet))
	var keptPoints int
	var worst float64
	for i, n := range fleet {
		kept := alg.Compress(n.Traj)
		compressed[i] = trajcomp.Named{ID: n.ID, Traj: kept}
		keptPoints += kept.Len()
		if e, err := trajcomp.MaxError(n.Traj, kept); err == nil && e > worst {
			worst = e
		}
	}
	lossyBin := size(compressed, binEnc)
	lossyZip := size(compressed, zipEnc)

	fmt.Printf("fleet: %d vehicles, %d fixes (one day)\n\n", vehicles, points)
	fmt.Printf("%-34s %10s %14s\n", "representation", "bytes", "bytes/fix")
	row := func(name string, n int) {
		fmt.Printf("%-34s %10d %14.1f\n", name, n, float64(n)/float64(points))
	}
	row("CSV (raw)", rawCSV)
	row("binary delta+varint (raw)", rawBin)
	row("binary + OPW-TR(30 m) lossy", lossyBin)
	row("  + DEFLATE container", lossyZip)
	fmt.Printf("\nlossy pipeline keeps %d of %d fixes; total reduction vs CSV: %.1f×\n",
		keptPoints, points, float64(rawCSV)/float64(lossyZip))
	fmt.Printf("worst-case synchronized position error introduced: %.1f m (bound: 30 m)\n", worst)
	// Output:
	// fleet: 20 vehicles, 9600 fixes (one day)
	//
	// representation                          bytes      bytes/fix
	// CSV (raw)                              597293           62.2
	// binary delta+varint (raw)               77182            8.0
	// binary + OPW-TR(30 m) lossy             44448            4.6
	//   + DEFLATE container                   33974            3.5
	//
	// lossy pipeline keeps 5480 of 9600 fixes; total reduction vs CSV: 17.6×
	// worst-case synchronized position error introduced: 30.0 m (bound: 30 m)
}

// Map matching: snap a noisy GPS drive onto the road network, then compress
// — removing lateral noise first lets the time-ratio algorithms discard far
// more points within the same synchronized error budget, and the result
// stays closer to the true movement.
func Example_mapmatching() {
	// A 7 km × 7 km downtown grid with 100 m blocks.
	roads := trajcomp.NewRoadGrid(71, 71, 100)

	// Simulate a drive along a staircase route with 8 m GPS noise.
	rng := rand.New(rand.NewSource(7))
	var truth, noisy trajcomp.Trajectory
	x, y := 0.0, 0.0
	heading := 0 // 0 = east, 1 = north
	for i := 0; i < 120; i++ {
		t := float64(i * 10)
		truth = append(truth, trajcomp.S(t, x, y))
		noisy = append(noisy, trajcomp.S(t, x+rng.NormFloat64()*8, y+rng.NormFloat64()*8))
		if i%12 == 11 { // turn at a junction every ~1200 m
			heading = 1 - heading
		}
		if heading == 0 {
			x += 100
		} else {
			y += 100
		}
	}

	_, matched, err := trajcomp.MapMatch(roads, noisy, trajcomp.MatchOptions{NoiseSigma: 8})
	if err != nil {
		log.Fatal(err)
	}

	// A budget of 20 m of synchronized error.
	alg, err := trajcomp.ParseAlgorithm("tdtr:20")
	if err != nil {
		log.Fatal(err)
	}
	rawKept := alg.Compress(noisy)
	matchedKept := alg.Compress(matched)

	report := func(name string, original, kept trajcomp.Trajectory) {
		e, err := trajcomp.AvgError(original, kept)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %4d → %3d points (%.1f%% compression), α = %.1f m\n",
			name, original.Len(), kept.Len(),
			trajcomp.CompressionRate(original.Len(), kept.Len()), e)
	}
	fmt.Println("TD-TR at a 20 m budget:")
	report("raw noisy track", noisy, rawKept)
	report("map-matched track", matched, matchedKept)

	// How close does each pipeline stay to the TRUE movement?
	eRaw, _ := trajcomp.AvgError(truth, rawKept)
	eMatched, _ := trajcomp.AvgError(truth, matchedKept)
	fmt.Printf("\nerror against ground truth: raw pipeline %.1f m, matched pipeline %.1f m\n", eRaw, eMatched)
	// Output:
	// TD-TR at a 20 m budget:
	// raw noisy track         120 →  31 points (74.2% compression), α = 7.2 m
	// map-matched track       120 →  20 points (83.3% compression), α = 7.1 m
	//
	// error against ground truth: raw pipeline 8.4 m, matched pipeline 6.7 m
}

package trajcomp

// Integration tests exercising the public API end to end, the way a
// downstream user would: generate → compress → evaluate → serialize → store
// → query.

import (
	"bytes"
	"strings"
	"testing"
)

func TestEndToEndBatchPipeline(t *testing.T) {
	p := GenerateTrip(1, Mixed, 1800)
	if err := p.Validate(); err != nil {
		t.Fatalf("generated trip invalid: %v", err)
	}

	alg := mustParse(t, "tdtr:30")
	a := alg.Compress(p)
	rep, err := Evaluate(alg.Name(), p, a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SyncMaxError > 30+1e-9 {
		t.Errorf("TD-TR exceeded its bound: %v", rep.SyncMaxError)
	}
	if rep.CompressionPct <= 0 {
		t.Errorf("no compression achieved: %+v", rep)
	}

	// Serialize the compressed result and read it back.
	var buf bytes.Buffer
	if err := EncodeFile(&buf, []Named{{ID: "trip", Traj: a}}); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].Traj.Len() != a.Len() {
		t.Errorf("round trip changed length: %d vs %d", back[0].Traj.Len(), a.Len())
	}
}

func TestEndToEndOnlineStoreQuery(t *testing.T) {
	st := NewStore(StoreOptions{
		NewCompressor: mustOnline(t, "opwsp:40:5"),
		CellSize:      500,
	})
	p := GenerateTrip(2, Urban, 1200)
	for _, s := range p {
		if err := st.Append("car", s); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.CompressionPct <= 0 {
		t.Errorf("on-ingest compression ineffective: %+v", stats)
	}
	// The whole journey must be discoverable via the spatial index.
	hits := st.Query(p.Bounds(), p.StartTime(), p.EndTime())
	if len(hits) != 1 || hits[0] != "car" {
		t.Errorf("Query = %v", hits)
	}
	snap, ok := st.Snapshot("car")
	if !ok {
		t.Fatal("snapshot missing")
	}
	maxErr, err := MaxError(p, snap)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > 40+1e-9 {
		t.Errorf("stored error %v exceeds tolerance", maxErr)
	}
}

func TestEndToEndParseAndSpecs(t *testing.T) {
	p := GenerateTrip(3, Rural, 900)
	for _, spec := range []string{"ndp:30", "tdtr:30", "opwsp:30:5", "butr:30", "swtr:30:16"} {
		alg, err := ParseAlgorithm(spec)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", spec, err)
		}
		a := alg.Compress(p)
		if a.Len() >= p.Len() {
			t.Errorf("%q achieved no compression", spec)
		}
	}
	if _, err := ParseAlgorithm("bogus:1"); err == nil {
		t.Error("bogus spec accepted")
	}
}

func TestEndToEndGeoJSONAndCSV(t *testing.T) {
	p := GenerateTrip(6, Mixed, 600)
	named := []Named{{ID: "t1", Traj: p}}

	var csvBuf bytes.Buffer
	if err := EncodeCSV(&csvBuf, named); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].Traj.Len() != p.Len() {
		t.Errorf("CSV round trip lost samples")
	}

	proj, err := NewProjector(LatLon{Lat: 52.22, Lon: 6.89})
	if err != nil {
		t.Fatal(err)
	}
	var gj bytes.Buffer
	if err := EncodeGeoJSON(&gj, named, proj); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gj.String(), "FeatureCollection") {
		t.Error("GeoJSON output malformed")
	}
}

func TestPaperDatasetViaFacade(t *testing.T) {
	ds := PaperDataset()
	if len(ds) != 10 {
		t.Fatalf("PaperDataset has %d trajectories", len(ds))
	}
	stats := SummarizeDataset(ds)
	if stats.Mean.NumPoints < 140 || stats.Mean.NumPoints > 260 {
		t.Errorf("dataset mean points %d out of calibration", stats.Mean.NumPoints)
	}
	if s := Summarize(ds[0]); s.NumPoints != ds[0].Len() {
		t.Errorf("Summarize inconsistent: %+v", s)
	}
}

func TestBuilderViaFacade(t *testing.T) {
	b := NewBuilder(4)
	for i := 0; i < 4; i++ {
		if err := b.AppendPoint(float64(i), float64(i*10), 0); err != nil {
			t.Fatal(err)
		}
	}
	p := b.Trajectory()
	if CompressionRate(p.Len(), mustParse(t, "uniform:2").Compress(p).Len()) <= 0 {
		t.Error("facade round trip failed")
	}
	if _, err := NewTrajectory([]Sample{S(1, 0, 0), S(0, 0, 0)}); err == nil {
		t.Error("invalid samples accepted")
	}
	d := SyncDistance(S(5, 0, 10), S(0, 0, 0), S(10, 100, 0))
	if d < 49 || d > 52 {
		t.Errorf("SyncDistance = %v, want ≈ sqrt(50²+10²)", d)
	}
}

// mustParse returns the batch algorithm of a spec.
func mustParse(tb testing.TB, spec string) Algorithm {
	tb.Helper()
	alg, err := ParseAlgorithm(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return alg
}

// mustOnline returns the compressor factory of an online spec.
func mustOnline(tb testing.TB, spec string) func() Compressor {
	tb.Helper()
	f, err := ParseOnline(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

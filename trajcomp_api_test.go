package trajcomp

// Exercises every public facade wrapper at least once, so the public API
// surface cannot silently rot.

import (
	"bytes"
	"reflect"
	"testing"
)

// Every strong spec (output a vertex subsequence, which Evaluate demands;
// the weak cisedw runs in TestFacadeParseOnline) compresses and evaluates.
func TestFacadeAlgorithmsRun(t *testing.T) {
	p := GenerateTrip(21, Urban, 900)
	for _, spec := range []string{
		"ndp:30", "nopw:30", "bopw:30", "tdtr:30", "opwtr:30",
		"opwsp:30:5", "tdsp:30:5", "bu:30", "butr:30",
		"sw:30:10", "swtr:30:10", "ndpn:20", "tdtrn:20", "squish:20",
		"uniform:3", "radial:25", "angular:0.5", "dr:30",
		"operb:30", "ciseds:30",
	} {
		alg := mustParse(t, spec)
		a := alg.Compress(p)
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
		if _, err := Evaluate(alg.Name(), p, a); err != nil {
			t.Errorf("%s: evaluate: %v", spec, err)
		}
	}
	if CompressionRate(100, 25) != 75 {
		t.Error("CompressionRate wrong")
	}
}

// ParseOnline refuses a batch-only spec and a window argument, yields nil
// for "none", and its compressors emit what the batch algorithm of the same
// spec keeps.
func TestFacadeParseOnline(t *testing.T) {
	if f, err := ParseOnline("none"); f != nil || err != nil {
		t.Errorf(`ParseOnline("none") = (factory %t, %v); want (nil, nil)`, f != nil, err)
	}
	if _, err := ParseOnline("tdtr:30"); err == nil {
		t.Error("ParseOnline accepted the batch-only tdtr")
	}
	if _, err := ParseOnline("opwtr:30:64"); err == nil {
		t.Error("ParseOnline accepted a window argument")
	}
	p := GenerateTrip(23, Mixed, 900)
	for _, spec := range []string{"dr:30", "nopw:30", "opwtr:30", "opwsp:30:5", "operb:30", "ciseds:30", "cisedw:30"} {
		newC, err := ParseOnline(spec)
		if err != nil {
			t.Fatalf("ParseOnline(%q): %v", spec, err)
		}
		got, err := Collect(newC(), p)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if want := mustParse(t, spec).Compress(p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: online kept %d points, batch %d", spec, got.Len(), want.Len())
		}
	}
}

func TestFacadeCodecs(t *testing.T) {
	named := []Named{{ID: "x", Traj: GenerateTrip(24, Mixed, 300)}}

	var zip bytes.Buffer
	if err := EncodeFileCompressed(&zip, named); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFileCompressed(&zip)
	if err != nil || len(back) != 1 {
		t.Fatalf("compressed round trip: %v", err)
	}

	proj, err := NewProjector(LatLon{Lat: 52.2, Lon: 6.9})
	if err != nil {
		t.Fatal(err)
	}
	var gpx bytes.Buffer
	if err := EncodeGPX(&gpx, named, proj); err != nil {
		t.Fatal(err)
	}
	tracks, _, err := DecodeGPX(&gpx, proj)
	if err != nil || len(tracks) != 1 {
		t.Fatalf("GPX round trip: %v", err)
	}
	if tracks[0].Traj.Len() != named[0].Traj.Len() {
		t.Errorf("GPX lost samples: %d vs %d", tracks[0].Traj.Len(), named[0].Traj.Len())
	}
}

func TestFacadeStoreExtras(t *testing.T) {
	st := NewStore(StoreOptions{Index: IndexRTree})
	p := GenerateTrip(25, Urban, 600)
	for _, s := range p {
		if err := st.Append("car", s); err != nil {
			t.Fatal(err)
		}
	}
	mid := p.StartTime() + p.Duration()/2
	nn := st.Nearest(Point{}, mid, 1)
	if len(nn) != 1 || nn[0].ID != "car" {
		t.Errorf("Nearest = %v", nn)
	}
	if got := st.QueryWithTolerance(p.Bounds(), p.StartTime(), p.EndTime(), 50); len(got) != 1 {
		t.Errorf("QueryWithTolerance = %v", got)
	}
	if removed := st.EvictBefore(mid); removed == 0 {
		t.Error("EvictBefore removed nothing")
	}
}

func TestFacadeMapMatch(t *testing.T) {
	g := NewRoadGrid(8, 8, 200)
	// A noisy eastbound drive along the bottom road.
	var p Trajectory
	for i := 0; i <= 8; i++ {
		p = append(p, S(float64(i*10), float64(i*150), float64(i%3-1)*6))
	}
	matches, snapped, err := MapMatch(g, p, MatchOptions{NoiseSigma: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != p.Len() || snapped.Len() != p.Len() {
		t.Fatalf("sizes %d/%d", len(matches), snapped.Len())
	}
	for i, s := range snapped {
		// Fixes at junctions may legitimately snap onto the crossing road,
		// so allow the noise amplitude rather than demanding y=0 exactly.
		if s.Y < -10 || s.Y > 10 {
			t.Errorf("sample %d snapped away from the route: %v", i, s.Pos())
		}
	}
}

func TestFacadeTrajectoryHelpers(t *testing.T) {
	p := GenerateTrip(27, Pedestrian, 300)
	if s := Summarize(p); s.NumPoints != p.Len() {
		t.Error("Summarize inconsistent")
	}
	if ds := SummarizeDataset([]Trajectory{p}); ds.N != 1 {
		t.Error("SummarizeDataset inconsistent")
	}
}

func TestFacadeFleetAndCommute(t *testing.T) {
	if fleet := GenerateFleet(22, 6, 4000, 600); len(fleet) != 6 {
		t.Fatalf("fleet size %d", len(fleet))
	}
	week := GenerateCommute(28, 5, Urban, 1200)
	if legs := week.SplitGaps(3600); len(legs) != 10 {
		t.Fatalf("week split into %d legs, want 10", len(legs))
	}
}

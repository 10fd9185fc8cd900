package trajcomp

// Exercises every public facade wrapper at least once, so the public API
// surface cannot silently rot.

import (
	"bytes"
	"testing"
)

func TestFacadeAlgorithmsRun(t *testing.T) {
	p := GenerateTrip(21, Urban, 900)
	algs := []Algorithm{
		NewDouglasPeucker(30),
		NewNOPW(30), NewBOPW(30),
		NewTDTR(30), NewOPWTR(30),
		NewOPWSP(30, 5), NewTDSP(30, 5),
		NewBottomUp(30), NewBottomUpTR(30),
		NewSlidingWindow(30, 10), NewSlidingWindowTR(30, 10),
		NewDouglasPeuckerN(20), NewTDTRN(20), NewSQUISH(20),
		NewUniform(3), NewRadial(25), NewDeadReckoning(30),
	}
	for _, alg := range algs {
		a := alg.Compress(p)
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
		if _, err := Evaluate(alg.Name(), p, a); err != nil {
			t.Errorf("%s: evaluate: %v", alg.Name(), err)
		}
	}
	if CompressionRate(100, 25) != 75 {
		t.Error("CompressionRate wrong")
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

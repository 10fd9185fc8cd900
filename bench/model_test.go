package main

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/trajectory"
)

// TestCheckRangeHot covers the brute-force comparison of a hot QUERYRANGE
// reply: exact where the hot tier answers, with the one tolerance a cold tier
// brings — the sample on the seal boundary, answered for the grown window.
func TestCheckRangeHot(t *testing.T) {
	trip := trajectory.Trajectory{
		trajectory.S(10, 0, 0), trajectory.S(20, 100, 0), trajectory.S(30, 200, 0),
		trajectory.S(40, 300, 0), trajectory.S(50, 400, 0),
	}
	f := fleet{ids: []string{objectID(0)}, trips: []trajectory.Trajectory{trip}}
	line := func(s trajectory.Sample) string { return fmt.Sprintf("%s %g %g %g\n", objectID(0), s.T, s.X, s.Y) }
	// The window holds samples 1..3 in space; sample 4 is 5 m beyond its edge.
	q := queryCase{kind: rangeHot, rect: geo.Rect{Min: geo.Pt(50, -10), Max: geo.Pt(395, 10)}, t0: 0, t1: 100}
	stable := []float64{40} // sample 4 was not final when the plan was made

	cases := []struct {
		name    string
		sealCut float64 // -Inf: no cold tier
		reply   string
		wantErr string
	}{
		{"exact", math.Inf(-1), line(trip[1]) + line(trip[2]) + line(trip[3]), ""},
		{"a newer, unstable sample is ignored", math.Inf(-1), line(trip[1]) + line(trip[2]) + line(trip[3]) + line(trip[4]), ""},
		{"a missing point fails", math.Inf(-1), line(trip[1]) + line(trip[3]), "where brute force has"},
		{"a short reply fails", math.Inf(-1), line(trip[1]) + line(trip[2]), "2 of the 3 points"},
		{"a point outside the window fails", math.Inf(-1), line(trip[0]) + line(trip[1]) + line(trip[2]) + line(trip[3]), "where brute force has"},
	}
	for _, c := range cases {
		m := newModel(f, nil, 0)
		if err := m.advance(len(trip)); err != nil {
			t.Fatal(err)
		}
		m.sealCut = c.sealCut
		err := m.checkRange(q, []byte(c.reply), stable)
		if (err == nil) != (c.wantErr == "") || (err != nil && !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}

	// With a cold tier sealed before t=15, sample 1 (x=100) is the seal
	// boundary. A window whose edge it misses by 5 m may still return it
	// (the bound is 10 m); without a cold tier the same reply is wrong.
	near := queryCase{kind: rangeHot, rect: geo.Rect{Min: geo.Pt(105, -10), Max: geo.Pt(350, 10)}, t0: 15, t1: 100}
	reply := []byte(line(trip[1]) + line(trip[2]) + line(trip[3]))
	for _, sealEps := range []float64{10, 0} {
		m := newModel(f, nil, 0)
		if err := m.advance(len(trip)); err != nil {
			t.Fatal(err)
		}
		m.sealCut, m.sealEps = 15, sealEps
		err := m.checkRange(near, reply, []float64{50})
		if (err == nil) != (sealEps > 0) {
			t.Errorf("seal boundary sample 5 m outside the window, seal eps %g: err = %v", sealEps, err)
		}
	}
}

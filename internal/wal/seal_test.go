package wal

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/store"
	"repro/internal/trajectory"
)

// sealEpoch matches the seal package's tests: Unix-time magnitude, where
// float64 time resolution is coarsest.
const sealEpoch = 1.7e9

func sealOpts() store.Options {
	return store.Options{SealEps: 2, SealBlockPoints: 32} // raw mode: every sample logged
}

func eastbound(t0 float64, n int) trajectory.Trajectory {
	out := make(trajectory.Trajectory, n)
	for i := range out {
		out[i] = trajectory.S(t0+float64(i)*10, float64(i)*10, 0)
	}
	return out
}

func TestColdTierRegeneratesFromWAL(t *testing.T) {
	path := logPath(t)
	d, err := OpenDurable(path, sealOpts())
	if err != nil {
		t.Fatal(err)
	}
	p := eastbound(sealEpoch, 100)
	for _, s := range p {
		if err := d.Append("car", s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.SealBefore(sealEpoch + 500); err != nil {
		t.Fatal(err)
	}
	window := geo.Rect{Min: geo.Pt(95, -5), Max: geo.Pt(305, 5)} // sealed era: samples 10..30
	before := d.RangePoints(window, sealEpoch, sealEpoch+400)
	if len(before) != 21 {
		t.Fatalf("sealed-era RangePoints = %d, want 21", len(before))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The cold tier is a regenerable cache, never a durability dependency:
	// replay restores every logged sample to the hot tier, and re-sealing
	// rebuilds an equivalent cold tier.
	d2, err := OpenDurable(path, sealOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.SealedPoints() != 0 {
		t.Fatalf("cold tier not empty after replay: %d points", d2.SealedPoints())
	}
	snap, ok := d2.Snapshot("car")
	if !ok || snap.Len() != 100 {
		t.Fatalf("replay recovered %d hot samples, want all 100", snap.Len())
	}
	for i := range p {
		if snap[i] != p[i] {
			t.Fatalf("replayed sample %d = %v, want exact %v", i, snap[i], p[i])
		}
	}

	if _, err := d2.SealBefore(sealEpoch + 500); err != nil {
		t.Fatal(err)
	}
	after := d2.RangePoints(window, sealEpoch, sealEpoch+400)
	if len(after) != len(before) {
		t.Fatalf("rebuilt cold tier answers %d points, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i].ID != before[i].ID || after[i].S != before[i].S {
			t.Errorf("rebuilt point %d = %+v, want %+v (deterministic re-seal)", i, after[i], before[i])
		}
	}
}

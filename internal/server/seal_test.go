package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/store"
	"repro/internal/trajectory"
)

// sealEpoch matches the seal package's tests: Unix-time magnitude, where
// float64 time resolution is coarsest.
const sealEpoch = 1.7e9

func TestServerSealAndTieredQueries(t *testing.T) {
	st := store.New(store.Options{SealEps: 2, SealBlockPoints: 32})
	addr, shutdown := startServer(t, st)
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 100 samples marching east at 1 m/s, one every 10 s.
	p := make(trajectory.Trajectory, 100)
	for i := range p {
		p[i] = trajectory.S(sealEpoch+float64(i)*10, float64(i)*10, 0)
	}
	if err := c.AppendBatch("car", p); err != nil {
		t.Fatal(err)
	}

	sealed, err := c.Seal(sealEpoch + 500)
	if err != nil {
		t.Fatal(err)
	}
	if sealed != 50 {
		t.Fatalf("Seal moved %d samples, want 50", sealed)
	}

	// QUERYRANGE straddling the hot/cold boundary unions both tiers.
	rect := geo.Rect{Min: geo.Pt(400, -5), Max: geo.Pt(600, 5)}
	pts, err := c.QueryRange(rect, sealEpoch+400, sealEpoch+600)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 21 {
		t.Fatalf("QueryRange = %d points, want 21 (samples 40..60)", len(pts))
	}
	for i, rp := range pts {
		want := p[40+i]
		if rp.ID != "car" || rp.S.Pos().Dist(want.Pos()) > 2 {
			t.Errorf("point %d = %+v, want within eps of %v", i, rp, want)
		}
	}

	// NEAREST at a sealed-era instant answers from the cold tier.
	nbs, err := c.Nearest(geo.Pt(100, 0), sealEpoch+100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 1 || nbs[0].ID != "car" {
		t.Fatalf("Nearest = %+v, want [car]", nbs)
	}
	if nbs[0].Dist > 2+1e-9 {
		t.Errorf("sealed-era neighbor distance %v exceeds eps", nbs[0].Dist)
	}

	// STATS reports the cold-tier footprint.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SealedPoints != 51 { // 50 aged + the boundary overlap head
		t.Errorf("Stats.SealedPoints = %d, want 51", stats.SealedPoints)
	}
	if stats.SealedBlocks == 0 || stats.SealedBytes == 0 {
		t.Errorf("Stats sealed footprint = %d blocks / %d bytes, want nonzero",
			stats.SealedBlocks, stats.SealedBytes)
	}
	// Re-sealing the same cut is a no-op.
	if sealed, err := c.Seal(sealEpoch + 500); err != nil || sealed != 0 {
		t.Errorf("second Seal = (%d, %v), want (0, nil)", sealed, err)
	}
}

// TestServerEveryVerbSeesSealedHistory is the wire side of the store's
// TestEveryVerbSeesSealedHistory, on the store trajserver -seal-eps builds:
// once SEAL has moved an object's history to the cold tier, POSITION, IDS
// and STATS still know it, and SNAPSHOT stays hot-only.
func TestServerEveryVerbSeesSealedHistory(t *testing.T) {
	const eps = 2
	addr, shutdown := startServer(t, store.New(store.Options{SealEps: eps}))
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := make(trajectory.Trajectory, 100)
	for i := range p {
		p[i] = trajectory.S(sealEpoch+float64(i)*10, float64(i)*10, 0)
	}
	if err := c.AppendBatch("car", p); err != nil {
		t.Fatal(err)
	}
	idsBefore, err := c.IDs()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.Seal(sealEpoch + 500); err != nil {
		t.Fatal(err)
	}
	if pos, err := c.PositionAt("car", p[10].T); err != nil || pos.Dist(p[10].Pos()) > eps {
		t.Errorf("half sealed: POSITION = %v, %v; want within %v m of %v", pos, err, eps, p[10].Pos())
	}

	if _, err := c.Seal(sealEpoch + 1e4); err != nil {
		t.Fatal(err)
	}
	if ids, err := c.IDs(); err != nil || strings.Join(ids, ",") != strings.Join(idsBefore, ",") {
		t.Errorf("all sealed: IDS = %v, %v; before SEAL %v", ids, err, idsBefore)
	}
	if pos, err := c.PositionAt("car", p[90].T); err != nil || pos.Dist(p[90].Pos()) > eps {
		t.Errorf("all sealed: POSITION = %v, %v; want within %v m of %v", pos, err, eps, p[90].Pos())
	}
	if stats, err := c.Stats(); err != nil || stats.Objects != 1 || len(stats.PointsPerObject) != 0 {
		t.Errorf("all sealed: STATS = %+v, %v; want objects=1 and no hot obj lines", stats, err)
	}
	if snap, err := c.Snapshot("car"); err == nil {
		t.Errorf("all sealed: SNAPSHOT = %v, want an error (hot tier only)", snap)
	}
}

func TestServerSealDisabled(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{}))
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Seal(100); err == nil {
		t.Fatal("Seal on a store without a cold tier did not error")
	} else if _, ok := err.(*RemoteError); !ok {
		t.Fatalf("Seal error = %T (%v), want *RemoteError", err, err)
	}
	// Without sealing, NEAREST and QUERYRANGE still answer from the hot tier.
	_ = c.Append("a", trajectory.S(0, 5, 5))
	nbs, err := c.Nearest(geo.Pt(0, 0), 0, 1)
	if err != nil || len(nbs) != 1 || nbs[0].ID != "a" {
		t.Errorf("hot-only Nearest = %+v, %v, want [a]", nbs, err)
	}
	pts, err := c.QueryRange(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(10, 10)}, 0, 1)
	if err != nil || len(pts) != 1 || pts[0].ID != "a" {
		t.Errorf("hot-only QueryRange = %+v, %v, want [a]", pts, err)
	}
}

// Raw-protocol test: the new commands reject malformed input with ERR
// without killing the connection, matching QUERY/QUERYTOL conventions.
func TestServerSealCommandUsageErrors(t *testing.T) {
	addr, shutdown := startServer(t, store.New(store.Options{SealEps: 2}))
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	send := func(line string) string {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatal(err)
		}
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading response to %q: %v", line, err)
		}
		return strings.TrimSpace(resp)
	}

	cases := []string{
		"QUERYRANGE 1 2 3",
		"QUERYRANGE 0 0 1 1 bad 1",
		"QUERYRANGE 10 10 0 0 0 1", // inverted rectangle
		"QUERYRANGE 0 0 1 1 5 1",   // inverted time window
		"NEAREST",
		"NEAREST 0 0 bad 1",
		"NEAREST 0 0 0 0",  // k must be positive
		"NEAREST 0 0 0 -1", // k must be positive
		"SEAL",
		"SEAL notanumber",
	}
	for _, line := range cases {
		if resp := send(line); !strings.HasPrefix(resp, "ERR") {
			t.Errorf("%q: response %q, want ERR", line, resp)
		}
	}
	if resp := send("SEAL 100"); resp != "OK sealed=0" {
		t.Errorf("SEAL on empty store: %q, want OK sealed=0", resp)
	}
	if resp := send("PING"); resp != "OK pong" {
		t.Errorf("connection unusable after errors: %q", resp)
	}
}

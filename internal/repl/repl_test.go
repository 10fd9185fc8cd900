package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

func openStore(t *testing.T, reg *metrics.Registry) *wal.DurableStore {
	t.Helper()
	d, err := wal.OpenDurable(filepath.Join(t.TempDir(), "trips.wal"), store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	d.SetSyncEvery(0)
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// acceptLoop is a minimal stand-in for the server package: it accepts
// connections, parses the REPLICATE line, and hands the stream to the
// Primary — exactly the handoff the real dispatch performs.
func acceptLoop(t *testing.T, p *Primary) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				serveReplicate(p, conn)
			}()
		}
	}()
	t.Cleanup(func() {
		p.Stop()
		_ = ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// serveReplicate performs the server side of one replication connection.
func serveReplicate(p *Primary, conn net.Conn) {
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	var off int64
	var seq uint64
	if _, err := fmt.Sscanf(line, "REPLICATE %d %d", &off, &seq); err != nil {
		return
	}
	_ = p.ServeFollower(conn, br, bufio.NewWriter(conn), off, seq)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func fastFollowerOpts(reg *metrics.Registry) FollowerOptions {
	return FollowerOptions{
		DialTimeout: time.Second,
		ReadTimeout: 2 * time.Second,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Metrics:     reg,
	}
}

// TestCatchUpAndLiveTail: a follower joining after the primary has history
// catches up byte-for-byte, then receives live appends as they commit.
func TestCatchUpAndLiveTail(t *testing.T) {
	pReg, fReg := metrics.NewRegistry(), metrics.NewRegistry()
	pStore := openStore(t, pReg)
	for i := 0; i < 50; i++ {
		if err := pStore.Append("car", trajectory.S(float64(i), float64(i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPrimary(pStore, Options{PingEvery: 50 * time.Millisecond, Metrics: pReg})
	addr := acceptLoop(t, p)

	fStore := openStore(t, fReg)
	f := StartFollower(fStore, addr, fastFollowerOpts(fReg))
	defer f.Stop()

	waitFor(t, "catch-up", func() bool { return fStore.AckedSeq() == 50 })

	// Live tail: new appends arrive without a reconnect.
	for i := 50; i < 80; i++ {
		if err := pStore.Append("car", trajectory.S(float64(i), float64(i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "live tail", func() bool { return fStore.AckedSeq() == 80 })

	pRaw, err := os.ReadFile(pStore.LogPath())
	if err != nil {
		t.Fatal(err)
	}
	fRaw, err := os.ReadFile(fStore.LogPath())
	if err != nil {
		t.Fatal(err)
	}
	if string(pRaw) != string(fRaw) {
		t.Errorf("logs differ after replication (%d vs %d bytes)", len(pRaw), len(fRaw))
	}
	ps, _ := pStore.Snapshot("car")
	fs, _ := fStore.Snapshot("car")
	if len(ps) != len(fs) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(ps), len(fs))
	}
	for i := range ps {
		if ps[i] != fs[i] {
			t.Fatalf("sample %d = %+v on follower, want %+v", i, fs[i], ps[i])
		}
	}
	if pReg.Counter("repl_catchups_total").Value() < 1 {
		t.Error("repl_catchups_total not incremented")
	}
}

// TestWaitReplicated: in AckFollower mode a write is only acknowledged once
// a follower's fsync covers it; with no follower attached the wait times
// out instead of silently succeeding.
func TestWaitReplicated(t *testing.T) {
	pReg := metrics.NewRegistry()
	pStore := openStore(t, pReg)
	p := NewPrimary(pStore, Options{
		Mode:       AckFollower,
		AckTimeout: 200 * time.Millisecond,
		PingEvery:  50 * time.Millisecond,
		Metrics:    pReg,
	})

	// No follower: appends are locally durable but never replicated.
	if err := pStore.Append("x", trajectory.S(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitReplicated(); err == nil {
		t.Fatal("WaitReplicated succeeded with no follower attached")
	}

	addr := acceptLoop(t, p)
	fReg := metrics.NewRegistry()
	fStore := openStore(t, fReg)
	f := StartFollower(fStore, addr, fastFollowerOpts(fReg))
	defer f.Stop()

	if err := pStore.Append("x", trajectory.S(2, 2, 2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var err error
	for time.Now().Before(deadline) {
		if err = p.WaitReplicated(); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("WaitReplicated with live follower: %v", err)
	}
	if got := fStore.AckedSeq(); got != 2 {
		t.Errorf("follower AckedSeq = %d after acked write, want 2", got)
	}
}

// TestPrimaryRefusesAckBeyondSent: an ACK for bytes the primary never sent
// drops the connection and does not count as replication, so a following
// WaitReplicated in AckFollower mode still waits for a real follower.
func TestPrimaryRefusesAckBeyondSent(t *testing.T) {
	pReg := metrics.NewRegistry()
	pStore := openStore(t, pReg)
	p := NewPrimary(pStore, Options{
		Mode:       AckFollower,
		AckTimeout: 200 * time.Millisecond,
		PingEvery:  20 * time.Millisecond,
		Metrics:    pReg,
	})
	addr := acceptLoop(t, p)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "REPLICATE 0 0\nACK 9223372036854775807 0\n"); err != nil {
		t.Fatal(err)
	}
	// The primary answers OK and then must hang up; a primary that keeps
	// the stream open keeps pinging until the deadline.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(conn)
	for {
		if _, err = br.ReadString('\n'); err != nil {
			break
		}
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Error("primary kept the connection after an ACK beyond the bytes it sent")
	}

	if err := pStore.Append("x", trajectory.S(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitReplicated(); err == nil {
		t.Fatal("WaitReplicated returned after a forged ACK, with no follower holding the record")
	}
}

// TestShedLaggingFollower: in AckPrimary mode a follower that receives the
// stream but never acknowledges is shed once its lag passes MaxLag, and the
// primary's ingest keeps making progress throughout.
func TestShedLaggingFollower(t *testing.T) {
	pReg := metrics.NewRegistry()
	pStore := openStore(t, pReg)
	p := NewPrimary(pStore, Options{
		Mode:      AckPrimary,
		MaxLag:    10,
		PingEvery: 20 * time.Millisecond,
		Metrics:   pReg,
	})
	addr := acceptLoop(t, p)

	// A hand-rolled stalled follower: performs the handshake, drains frames
	// so the primary's writes never block, but never sends an ACK.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "REPLICATE %d 0\n", wal.HeaderLen); err != nil {
		t.Fatal(err)
	}
	shed := make(chan string, 1)
	go func() {
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if strings.HasPrefix(line, "ERR") {
				shed <- strings.TrimSpace(line)
				return
			}
			if strings.HasPrefix(line, "DATA ") {
				var n int
				if _, err := fmt.Sscanf(line, "DATA %d", &n); err != nil {
					return
				}
				if _, err := br.Discard(n); err != nil {
					return
				}
			}
		}
	}()

	for i := 0; i < 100; i++ {
		if err := pStore.Append("x", trajectory.S(float64(i), 1, 1)); err != nil {
			t.Fatalf("primary ingest blocked at %d: %v", i, err)
		}
	}
	select {
	case line := <-shed:
		if !strings.Contains(line, "lagging") {
			t.Errorf("shed reason = %q, want lagging", line)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled follower was never shed")
	}
	if got := pReg.Counter("repl_sheds_total").Value(); got < 1 {
		t.Errorf("repl_sheds_total = %d, want >= 1", got)
	}
}

// TestPromote: promotion stops replication and reopens the write path; the
// promoted node's state is the replicated prefix.
func TestPromote(t *testing.T) {
	pReg, fReg := metrics.NewRegistry(), metrics.NewRegistry()
	pStore := openStore(t, pReg)
	p := NewPrimary(pStore, Options{PingEvery: 20 * time.Millisecond, Metrics: pReg})
	addr := acceptLoop(t, p)

	fStore := openStore(t, fReg)
	f := StartFollower(fStore, addr, fastFollowerOpts(fReg))
	for i := 0; i < 10; i++ {
		if err := pStore.Append("x", trajectory.S(float64(i), 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "replication", func() bool { return fStore.AckedSeq() == 10 })

	if err := fStore.Append("x", trajectory.S(100, 1, 1)); !errors.Is(err, wal.ErrReplica) {
		t.Fatalf("pre-promotion Append = %v, want ErrReplica", err)
	}
	f.Promote()
	if !f.Promoted() {
		t.Error("Promoted() = false after Promote")
	}
	f.Promote() // idempotent
	if err := fStore.Append("x", trajectory.S(100, 1, 1)); err != nil {
		t.Fatalf("post-promotion Append: %v", err)
	}
	if got := fStore.AckedSeq(); got != 11 {
		t.Errorf("promoted AckedSeq = %d, want 11 (replicated 10 + own 1)", got)
	}
}

// TestFollowerReconnect: a follower whose stream drops reconnects with
// backoff and resumes from its durable offset rather than from scratch.
func TestFollowerReconnect(t *testing.T) {
	pReg, fReg := metrics.NewRegistry(), metrics.NewRegistry()
	pStore := openStore(t, pReg)
	for i := 0; i < 5; i++ {
		if err := pStore.Append("x", trajectory.S(float64(i), 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPrimary(pStore, Options{PingEvery: 20 * time.Millisecond, Metrics: pReg})

	// An accept loop that slams the door on the first attempt right after
	// the handshake line arrives, then serves normally.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var attempts atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if attempts.Add(1) == 1 {
				_ = conn.Close()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				serveReplicate(p, conn)
			}()
		}
	}()
	t.Cleanup(func() {
		p.Stop()
		_ = ln.Close()
		wg.Wait()
	})

	fStore := openStore(t, fReg)
	f := StartFollower(fStore, ln.Addr().String(), fastFollowerOpts(fReg))
	defer f.Stop()
	waitFor(t, "catch-up after reconnect", func() bool { return fStore.AckedSeq() == 5 })
	if got := attempts.Load(); got < 2 {
		t.Errorf("attempts = %d, want >= 2 (first was dropped)", got)
	}
	if got := fReg.Counter("repl_connects_total").Value(); got < 2 {
		t.Errorf("repl_connects_total = %d, want >= 2", got)
	}
}

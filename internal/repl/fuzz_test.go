package repl

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

// FuzzFollowerStream drives Follower.stream — the frame reader that faces a
// primary's socket — with arbitrary bytes after an OK handshake, over
// net.Pipe against a fake primary that drains the ACKs. The reader must not
// panic, must always end the session with an error (the fake primary hangs
// up after the input), and must leave a log that reopens to exactly the
// state the follower applied: no acknowledged-but-unlogged record, no logged
// record the store refused.
func FuzzFollowerStream(f *testing.F) {
	rec := logBytes(f, []wal.Record{
		{ID: "a", Sample: trajectory.S(1, 2, 3)},
		{ID: "bus-42", Sample: trajectory.S(1.7e9, -5, 6.5)},
	})
	data := func(b []byte) []byte { return append(fmt.Appendf(nil, "%s%d\n", frameData, len(b)), b...) }
	split := len(rec) / 3 // inside the first record
	for _, seed := range [][]byte{
		data(rec),
		append(data(rec[:split]), data(rec[split:])...),
		[]byte(frameData + "0\n"),
		fmt.Appendf(nil, "%s%d\n", frameData, maxFrameBytes+1),
		[]byte(framePing + "\n"),
		[]byte(frameErr + "x\n"),
		[]byte("HELLO\n"),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, input []byte) {
		reg := metrics.NewRegistry()
		path := filepath.Join(t.TempDir(), "follower.wal")
		d, err := wal.OpenDurable(path, store.Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		d.SetReplica(true)
		fl := &Follower{store: d, opts: FollowerOptions{Metrics: reg}.withDefaults(), ins: newInstruments(reg)}

		local, remote := net.Pipe()
		primaryDone := make(chan struct{})
		go func() {
			defer close(primaryDone)
			defer remote.Close()
			br := bufio.NewReader(remote)
			if _, err := br.ReadString('\n'); err != nil { // the REPLICATE line
				return
			}
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				_, _ = io.Copy(io.Discard, br) // ACKs, until the pipe closes
			}()
			_, _ = remote.Write(append([]byte("OK\n"), input...)) // fails once the follower hangs up
			_ = remote.Close()
			<-drained
		}()
		streamErr := fl.stream(local)
		_ = local.Close()
		<-primaryDone
		if streamErr == nil {
			t.Fatal("stream returned nil after the primary hung up")
		}

		want := storeState(d)
		if err := d.Close(); err != nil {
			t.Fatalf("close after %v: %v", streamErr, err)
		}
		d2, err := wal.OpenDurable(path, store.Options{Metrics: metrics.NewRegistry()})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer d2.Close()
		got := storeState(d2)
		if len(got) != len(want) {
			t.Fatalf("reopened log holds %d objects, follower applied %d", len(got), len(want))
		}
		for id, w := range want {
			if !slices.Equal(got[id], w) {
				t.Fatalf("object %q: reopened %v, applied %v", id, got[id], w)
			}
		}
	})
}

// FuzzPrimaryAck drives the primary's ACK reader — the half of
// ServeFollower that faces a follower's socket — with arbitrary bytes after
// the primary has sent its whole log, over net.Pipe. ServeFollower must not
// panic, must return once the input ends (the fake follower hangs up), and
// must never record an ACK beyond the bytes it sent.
func FuzzPrimaryAck(f *testing.F) {
	seedLog := primaryLog(f, f.TempDir())
	sent := seedLog.AckedOffset()
	if err := seedLog.Close(); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		fmt.Appendf(nil, "%s%d 3\n", frameAck, sent),
		fmt.Appendf(nil, "%s%d 3\n", frameAck, sent+1),
		fmt.Appendf(nil, "%s9223372036854775807 0\n", frameAck),
		fmt.Appendf(nil, "%s-1 0\n", frameAck),
		fmt.Appendf(nil, "%s%d 3\n%s%d 2\n", frameAck, sent, frameAck, sent-1),
		bytes.Repeat([]byte{'7'}, 1<<20), // a line without a newline
		[]byte("\x00garbage\nACK\n"),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, input []byte) {
		d := primaryLog(t, t.TempDir())
		defer d.Close()
		p := NewPrimary(d, Options{Mode: AckFollower, PingEvery: time.Hour, Metrics: metrics.NewRegistry()})

		local, remote := net.Pipe()
		followerDone := make(chan struct{})
		go func() {
			defer close(followerDone)
			defer remote.Close()
			br := bufio.NewReader(remote)
			// Take the whole log before acknowledging anything, so the bytes
			// sent are exactly the log when the input arrives.
			if _, err := br.ReadString('\n'); err != nil { // OK replicate
				return
			}
			for got := int64(wal.HeaderLen); got < sent; {
				var n int
				if _, err := fmt.Fscanf(br, frameData+"%d\n", &n); err != nil {
					return
				}
				if _, err := br.Discard(n); err != nil {
					return
				}
				got += int64(n)
			}
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				_, _ = io.Copy(io.Discard, br) // pings, until the pipe closes
			}()
			_, _ = remote.Write(input) // fails once the primary hangs up
			_ = remote.Close()
			<-drained
		}()
		_ = p.ServeFollower(local, bufio.NewReaderSize(local, 4096), bufio.NewWriter(local), 0, 0)
		<-followerDone

		p.mu.Lock()
		maxAck := p.maxAck
		p.mu.Unlock()
		if maxAck > sent {
			t.Fatalf("primary recorded ACK %d beyond the %d bytes it sent", maxAck, sent)
		}
	})
}

// primaryLog opens a durable store in dir holding three flushed records.
func primaryLog(tb testing.TB, dir string) *wal.DurableStore {
	tb.Helper()
	d, err := wal.OpenDurable(filepath.Join(dir, "primary.wal"), store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Append("car", trajectory.S(float64(i), float64(i), 0)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		tb.Fatal(err)
	}
	return d
}

// logBytes returns the on-disk record bytes of recs: what a primary streams
// after the log header.
func logBytes(f *testing.F, recs []wal.Record) []byte {
	path := filepath.Join(f.TempDir(), "seed.wal")
	l, err := wal.Open(path, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw[wal.HeaderLen:]
}

// storeState snapshots every object the store holds.
func storeState(d *wal.DurableStore) map[string]trajectory.Trajectory {
	out := make(map[string]trajectory.Trajectory)
	for _, id := range d.IDs() {
		out[id], _ = d.Snapshot(id)
	}
	return out
}

package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trajectory"
)

// gateFS wraps a filesystem so the test can park fsyncs at a barrier: every
// Sync after the header setup blocks until the test releases it, and the
// release value decides success or failure. This makes group-commit
// coalescing deterministic instead of racing against disk latency.
type gateFS struct {
	fault.FS
	gate *syncGate
}

type syncGate struct {
	mu      sync.Mutex
	armed   bool
	syncs   atomic.Int64
	entered chan struct{} // one send per gated Sync entry
	release chan error    // one receive per gated Sync exit
}

func newSyncGate() *syncGate {
	return &syncGate{entered: make(chan struct{}, 64), release: make(chan error, 64)}
}

func (g *syncGate) arm()    { g.mu.Lock(); g.armed = true; g.mu.Unlock() }
func (g *syncGate) disarm() { g.mu.Lock(); g.armed = false; g.mu.Unlock() }

func (fs gateFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gateFile{File: f, gate: fs.gate}, nil
}

type gateFile struct {
	fault.File
	gate *syncGate
}

func (f gateFile) Sync() error {
	f.gate.mu.Lock()
	armed := f.gate.armed
	f.gate.mu.Unlock()
	f.gate.syncs.Add(1)
	if !armed {
		return f.File.Sync()
	}
	f.gate.entered <- struct{}{}
	if err := <-f.gate.release; err != nil {
		return err
	}
	return f.File.Sync()
}

// TestGroupCommitCoalescesConcurrentAppends is the tentpole contract: while
// one leader's fsync is in flight, every append queued behind it must be
// covered by the single next fsync — four strict-durability appends, two
// fsyncs total.
func TestGroupCommitCoalescesConcurrentAppends(t *testing.T) {
	gate := newSyncGate()
	fsys := gateFS{FS: fault.NewFS(fault.OS, fault.NewSet(nil)), gate: gate}
	d, err := OpenDurableFS(fsys, filepath.Join(t.TempDir(), "trips.wal"), store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	d.SetSyncEvery(0) // every append waits for the fsync covering it
	gate.arm()
	before := gate.syncs.Load()

	// Leader: its fsync parks at the gate.
	leaderDone := make(chan error, 1)
	go func() { leaderDone <- d.Append("lead", trajectory.S(0, 0, 0)) }()
	<-gate.entered

	// Three followers queue while the leader's fsync is in flight.
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = d.Append(fmt.Sprintf("follow-%d", i), trajectory.S(float64(i), 1, 1))
		}(i)
	}
	// Wait until all three followers have staged their records behind the
	// in-flight fsync — only then is "one group fsync covers all three"
	// the required outcome rather than a lucky interleaving.
	waitForStaged(t, d, 4)
	// The followers must NOT start a second fsync while the leader holds
	// the token; give them the leader's release, then one more for the
	// group sync that covers all three.
	gate.release <- nil
	<-gate.entered
	gate.release <- nil
	wg.Wait()
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader append: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("follower %d append: %v", i, err)
		}
	}
	if got := gate.syncs.Load() - before; got != 2 {
		t.Fatalf("4 strict appends used %d fsyncs, want 2 (1 leader + 1 group)", got)
	}
	gate.disarm()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitForStaged polls until n records have been staged into the write
// buffer (not necessarily synced). It only tries the locks: a lock held
// across the parked fsync counts as "not staged yet", so a leader that
// keeps the log lock over its fsync fails here at the deadline instead of
// hanging the package until the test binary times out.
func waitForStaged(t *testing.T, d *DurableStore, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var staged uint64
	for {
		if d.mu.TryLock() {
			l := d.log
			d.mu.Unlock()
			if l.mu.TryLock() {
				staged = l.writeSeq
				l.mu.Unlock()
			}
		}
		if staged >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d records staged before timeout", staged, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// A failing group fsync must propagate the error to every append it was
// covering — none of them may report durability — and poison the store.
func TestGroupCommitSyncFailurePropagatesToAllWaiters(t *testing.T) {
	gate := newSyncGate()
	fsys := gateFS{FS: fault.NewFS(fault.OS, fault.NewSet(nil)), gate: gate}
	d, err := OpenDurableFS(fsys, filepath.Join(t.TempDir(), "trips.wal"), store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	d.SetSyncEvery(0)
	gate.arm()

	leaderDone := make(chan error, 1)
	go func() { leaderDone <- d.Append("lead", trajectory.S(0, 0, 0)) }()
	<-gate.entered

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = d.Append(fmt.Sprintf("follow-%d", i), trajectory.S(float64(i), 1, 1))
		}(i)
	}
	waitForStaged(t, d, 4)
	// Fail the leader's fsync. The waiters behind it must all error too:
	// either via the sticky torn-log state or the store's poison.
	broken := errors.New("injected fsync failure")
	gate.release <- broken
	if err := <-leaderDone; !errors.Is(err, broken) {
		t.Fatalf("leader append = %v, want the injected fsync failure", err)
	}
	// A second fsync attempt may or may not start before the poison is
	// observed; fail it as well if it does.
	for drained := false; !drained; {
		select {
		case <-gate.entered:
			gate.release <- broken
		default:
			drained = true
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("follower %d acknowledged an append the failed fsync never covered", i)
		}
	}
	if d.Poisoned() == nil {
		t.Fatal("store not poisoned after group-commit fsync failure")
	}
	if err := d.Append("after", trajectory.S(9, 9, 9)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failed group commit = %v, want ErrPoisoned", err)
	}
}

// Concurrent strict-durability appends across many goroutines must all be
// recoverable after reopen — the acknowledged-prefix guarantee holds under
// contention, and per-object order survives the shared log.
func TestGroupCommitConcurrentAppendsRecoverable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trips.wal")
	d, err := OpenDurable(path, store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	d.SetSyncEvery(0)
	const goroutines, perObject = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := string(rune('a' + g))
			for i := 0; i < perObject; i++ {
				if err := d.Append(id, trajectory.S(float64(i), float64(g), float64(i))); err != nil {
					t.Errorf("append %s/%d: %v", id, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(path, store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for g := 0; g < goroutines; g++ {
		id := string(rune('a' + g))
		snap, ok := d2.Snapshot(id)
		if !ok || snap.Len() != perObject {
			t.Fatalf("object %s: recovered %d samples, want %d", id, snap.Len(), perObject)
		}
		for i, s := range snap {
			if s.T != float64(i) || s.X != float64(g) {
				t.Fatalf("object %s sample %d = %+v, out of order or corrupt", id, i, s)
			}
		}
	}
}

// AppendBatch must behave like the equivalent singles: same store state,
// same durable log, one OK for the whole batch, and an intact applied
// prefix when a mid-batch sample is rejected.
func TestDurableAppendBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trips.wal")
	d, err := OpenDurable(path, store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	d.SetSyncEvery(0)
	batch := []trajectory.Sample{
		trajectory.S(0, 0, 0), trajectory.S(1, 1, 0), trajectory.S(2, 2, 0),
	}
	if n, err := d.AppendBatch("car", batch); err != nil || n != 3 {
		t.Fatalf("AppendBatch = (%d, %v), want (3, nil)", n, err)
	}
	// Mid-batch rejection: t=1 is out of order after t=3; the prefix up to
	// it must stick, the suffix must not.
	bad := []trajectory.Sample{
		trajectory.S(3, 3, 0), trajectory.S(1, 9, 9), trajectory.S(4, 4, 0),
	}
	n, err := d.AppendBatch("car", bad)
	if err == nil || n != 1 {
		t.Fatalf("out-of-order batch = (%d, %v), want (1, error)", n, err)
	}
	if d.Poisoned() != nil {
		t.Fatalf("store rejection poisoned the log: %v", d.Poisoned())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(path, store.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, _ := d2.Snapshot("car")
	wantT := []float64{0, 1, 2, 3}
	if snap.Len() != len(wantT) {
		t.Fatalf("recovered %d samples, want %d", snap.Len(), len(wantT))
	}
	for i, w := range wantT {
		if snap[i].T != w {
			t.Fatalf("sample %d at t=%v, want t=%v", i, snap[i].T, w)
		}
	}
}

package compress

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/trajectory"
)

// countingAlg counts Compress calls and observes peak concurrency.
type countingAlg struct {
	inner  Algorithm
	calls  *atomic.Int64
	active *atomic.Int64
	peak   *atomic.Int64
}

func (c countingAlg) Name() string { return "counting(" + c.inner.Name() + ")" }

func (c countingAlg) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	c.calls.Add(1)
	if n := c.active.Add(1); true {
		for {
			old := c.peak.Load()
			if n <= old || c.peak.CompareAndSwap(old, n) {
				break
			}
		}
	}
	defer c.active.Add(-1)
	return c.inner.Compress(p)
}

func batchTracks(seed int64, n int) []trajectory.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]trajectory.Trajectory, n)
	for i := range ps {
		ps[i] = randomTrack(rng, 40+rng.Intn(80))
	}
	return ps
}

// The pool never runs more than Parallelism compressions at once.
func TestCompressAllBoundsParallelism(t *testing.T) {
	ps := batchTracks(7, 24)
	var calls, active, peak atomic.Int64
	alg := countingAlg{inner: TDTR{Threshold: 40}, calls: &calls, active: &active, peak: &peak}
	out := CompressAll(alg, BatchOptions{Parallelism: 3}, ps)
	if len(out) != len(ps) {
		t.Fatalf("got %d results, want %d", len(out), len(ps))
	}
	if calls.Load() != int64(len(ps)) {
		t.Fatalf("compress called %d times, want %d", calls.Load(), len(ps))
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds Parallelism 3", p)
	}
}

package store

import (
	"runtime"
	"sync"
)

// shard is one independent slice of the store: it owns the objects whose IDs
// hash to it, the spatiotemporal index over the runs of their retained
// trajectories, and the per-shard bookkeeping counters. Every shard has its
// own lock, so appends to objects on different shards never contend.
type shard struct {
	mu      sync.RWMutex
	objects map[string]*object
	index   spatialIndex
	rawPts  int
	idxRuns int // runs currently in this shard's index
	pending pendingDeltas
}

// pendingDeltas are instrument updates accumulated under a shard's lock and
// published once per locked section (Store.publishLocked).
type pendingDeltas struct {
	appends, retained, runs int
}

// fnv1a is the 32-bit FNV-1a hash of id, computed inline so shard selection
// allocates nothing on the append hot path.
func fnv1a(id string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return h
}

// shardOf returns the shard owning id. The mapping is pure: the same id
// always selects the same shard for the lifetime of the store.
func (st *Store) shardOf(id string) *shard {
	return st.shards[fnv1a(id)&st.mask]
}

// normalizeShards maps the requested shard count to the actual power-of-two
// count used: values ≤ 0 select the default max(8, 2×GOMAXPROCS); any other
// value is rounded up to the next power of two (capped at 1<<16 so a typo
// cannot allocate millions of shards).
func normalizeShards(n int) int {
	if n <= 0 {
		n = 2 * runtime.GOMAXPROCS(0)
		if n < 8 {
			n = 8
		}
	}
	const maxShards = 1 << 16
	if n > maxShards {
		return maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newIndex builds one shard's empty spatiotemporal index per the options.
func newIndex(opts Options) spatialIndex {
	switch opts.Index {
	case IndexRTree:
		return newRTreeIndex()
	default:
		return newGridIndex(opts.CellSize)
	}
}

// Package seal is the cold tier of the moving-object store: immutable
// sealed segment blocks answering spatiotemporal range and nearest
// queries directly over their compressed form.
//
// Per-object runs of retained points are delta-coded against the previous
// reconstructed position and codebook-quantized onto an ε-cell grid
// (PPQ-style product/codebook quantization adapted to trajectories), each
// block recording the per-block error bound it actually incurred and its
// spatiotemporal bounding box, which is registered in an internal/rtree
// index. Queries prune through the R-tree and evaluate their predicate over
// reconstructed samples of at most the blocks whose boxes intersect the
// query — "query without decompression" in the sense that no global
// decompression, re-ingest or index rebuild happens; the tier decodes the
// handful of candidate blocks on the fly and nothing else.
//
// The tier is a cache of history, never a durability dependency: the
// authoritative copy of every sealed sample is the write-ahead log, and the
// tier can always be regenerated by replaying the WAL and re-sealing (see
// internal/wal for the compaction interlock this requires).
package seal

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/rtree"
	"repro/internal/trajectory"
)

// DefaultBlockPoints is the sealed block size used when Config.BlockPoints
// is zero: large enough to amortize per-block overhead (≈0.5 bytes/point at
// 256), small enough that a query decodes little beyond what it needs.
const DefaultBlockPoints = 256

// minBlockPoints floors pathological configurations; below this the fixed
// per-block overhead dominates and the tier would expand data.
const minBlockPoints = 8

// rawSampleBytes is the accounted in-memory size of one retained hot
// sample (three float64s), the baseline for compression-ratio reporting.
const rawSampleBytes = 24

// Config configures a Tier.
type Config struct {
	// Eps is the spatial quantization error bound in metres; must be > 0.
	// Every reconstructed position is within Eps of its original.
	Eps float64
	// BlockPoints caps the samples per sealed block; 0 selects
	// DefaultBlockPoints, values below the minimum are raised to it.
	BlockPoints int
	// Metrics selects the registry for the seal_* instruments; nil selects
	// metrics.Default().
	Metrics *metrics.Registry
}

// instruments holds the tier's registered metrics.
type instruments struct {
	blocks       *metrics.Gauge
	points       *metrics.Gauge
	bytes        *metrics.Gauge
	ratio        *metrics.Gauge
	seals        *metrics.Counter
	sealedPts    *metrics.Counter
	decoded      *metrics.Counter
	pruned       *metrics.Counter
	querySeconds map[string]*metrics.Histogram // by query kind
}

func newInstruments(r *metrics.Registry) *instruments {
	if r == nil {
		r = metrics.Default()
	}
	kinds := make(map[string]*metrics.Histogram, 3)
	for _, kind := range []string{"range", "points", "nearest"} {
		kinds[kind] = r.Histogram("seal_query_seconds", nil, metrics.L("kind", kind))
	}
	return &instruments{
		blocks:       r.Gauge("seal_blocks"),
		points:       r.Gauge("seal_points"),
		bytes:        r.Gauge("seal_bytes"),
		ratio:        r.Gauge("seal_compression_ratio"),
		seals:        r.Counter("seal_seals_total"),
		sealedPts:    r.Counter("seal_sealed_points_total"),
		decoded:      r.Counter("seal_blocks_decoded_total"),
		pruned:       r.Counter("seal_blocks_pruned_total"),
		querySeconds: kinds,
	}
}

// chain is one object's time-ordered sequence of sealed blocks.
type chain struct {
	blocks []*Block
	last   trajectory.Sample // exact last sealed sample (= next overlap head)
}

// Hit is one point returned by RangePoints.
type Hit struct {
	ID string
	S  trajectory.Sample
}

// Tier is the cold store: per-object chains of sealed blocks under an
// R-tree of block boxes. Safe for concurrent use; sealing takes the write
// lock, queries share the read lock and decode immutable blocks without
// holding any per-block state.
type Tier struct {
	// Written once by NewTier, so read without mu.
	eps      float64
	blockPts int
	ins      *instruments

	mu      sync.RWMutex
	chains  map[string]*chain
	blocks  map[string]*Block // blockKey(id, seq) → block
	tree    *rtree.Tree
	nblocks int
	npoints int   // distinct sealed samples (overlap heads counted once)
	nbytes  int64 // accounted compressed footprint
}

// NewTier returns an empty cold tier. It panics on a non-positive Eps,
// which indicates a configuration error upstream (the store only
// constructs a tier when sealing is enabled).
func NewTier(cfg Config) *Tier {
	if cfg.Eps <= 0 {
		panic(fmt.Sprintf("seal: non-positive eps %v", cfg.Eps))
	}
	if cfg.BlockPoints <= 0 {
		cfg.BlockPoints = DefaultBlockPoints
	}
	if cfg.BlockPoints < minBlockPoints {
		cfg.BlockPoints = minBlockPoints
	}
	return &Tier{
		eps:      cfg.Eps,
		blockPts: cfg.BlockPoints,
		ins:      newInstruments(cfg.Metrics),
		chains:   make(map[string]*chain),
		blocks:   make(map[string]*Block),
		tree:     rtree.New(),
	}
}

// Eps returns the configured spatial error bound in metres.
func (t *Tier) Eps() float64 { return t.eps }

func blockKey(id string, seq int) string { return fmt.Sprintf("%s\x00%d", id, seq) }

// Seal appends one run of samples to an object's chain, encoding it into
// one or more blocks and registering their boxes in the R-tree. The run
// must be strictly increasing in time and must not start before the chain's
// last sealed sample; a run starting exactly at it is the seal-on-evict
// overlap (the boundary sample is sealed once and shared). Seal is atomic:
// on error the tier is unchanged.
func (t *Tier) Seal(id string, ss []trajectory.Sample) error {
	if len(ss) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	ch := t.chains[id]
	cont := false
	if ch != nil {
		switch {
		//lint:allow floatcmp the overlap head is the identical stored sample, compared bit-exactly
		case ss[0].T == ch.last.T:
			cont = true
			if len(ss) == 1 {
				return nil // nothing beyond the already-sealed boundary
			}
		case ss[0].T < ch.last.T:
			return fmt.Errorf("seal: object %q: run starts at t=%v before sealed history end t=%v", id, ss[0].T, ch.last.T)
		}
	}

	// Encode every chunk before mutating any state, so a mid-run encoding
	// error leaves the tier untouched.
	seq := 0
	if ch != nil {
		seq = len(ch.blocks)
	}
	var fresh []*Block
	distinct := 0
	for start := 0; ; {
		end := start + t.blockPts
		if end > len(ss) {
			end = len(ss)
		}
		blk, err := newBlock(seq+len(fresh), cont || start > 0, t.eps, ss[start:end])
		if err != nil {
			return fmt.Errorf("seal: object %q: %w", id, err)
		}
		fresh = append(fresh, blk)
		d := end - start
		if blk.cont {
			d-- // overlap head was already counted by the previous block
		}
		distinct += d
		if end == len(ss) {
			break
		}
		start = end - 1 // one-sample overlap keeps every span interpolable
	}

	if ch == nil {
		ch = &chain{}
		t.chains[id] = ch
	}
	for _, blk := range fresh {
		ch.blocks = append(ch.blocks, blk)
		t.blocks[blockKey(id, blk.seq)] = blk
		t.tree.Insert(blk.box, blockKey(id, blk.seq))
		t.nblocks++
		t.nbytes += int64(blk.CompressedBytes())
	}
	ch.last = ss[len(ss)-1]
	t.npoints += distinct

	t.ins.seals.Inc()
	t.ins.sealedPts.Add(int64(distinct))
	t.ins.blocks.Set(float64(t.nblocks))
	t.ins.points.Set(float64(t.npoints))
	t.ins.bytes.Set(float64(t.nbytes))
	if t.nbytes > 0 {
		t.ins.ratio.Set(float64(t.npoints*rawSampleBytes) / float64(t.nbytes))
	}
	return nil
}

// Blocks returns the number of sealed blocks.
func (t *Tier) Blocks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nblocks
}

// Points returns the number of distinct sealed samples.
func (t *Tier) Points() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.npoints
}

// CompressedBytes returns the tier's accounted footprint in bytes.
func (t *Tier) CompressedBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nbytes
}

// RawEquivalentBytes returns what the sealed samples would occupy as
// retained hot points (24 bytes each), the baseline of the compression
// ratio.
func (t *Tier) RawEquivalentBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int64(t.npoints) * rawSampleBytes
}

// IDs returns the identifiers of all objects with sealed history, sorted.
func (t *Tier) IDs() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.chains))
	for id := range t.chains {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// candidates collects the sealed blocks whose boxes intersect the query,
// grouped per object in chain order. The read lock must be held.
func (t *Tier) candidates(rect geo.Rect, t0, t1 float64) map[string][]*Block {
	if rect.IsEmpty() || t1 < t0 {
		return nil
	}
	out := make(map[string][]*Block)
	t.tree.Search(rtree.Box{Rect: rect, T0: t0, T1: t1}, func(key string) bool {
		id := key[:strings.LastIndexByte(key, 0)]
		out[id] = append(out[id], t.blocks[key])
		return true
	})
	for _, blks := range out {
		sortStable(blks, func(a, b *Block) bool { return a.seq < b.seq })
	}
	return out
}

// QueryIDs returns the IDs of objects whose sealed trajectory intersects
// the rectangle during [t0, t1], sorted. Like the hot store's Query, the
// test is conservative at segment-bounding-box granularity, with each
// block's recorded error bound expanding the rectangle so compression
// introduces no false negatives against the original points.
func (t *Tier) QueryIDs(rect geo.Rect, t0, t1 float64) []string {
	defer t.ins.querySeconds["range"].ObserveSince(time.Now())
	t.mu.RLock()
	defer t.mu.RUnlock()

	cands := t.candidates(rect, t0, t1)
	decoded := 0
	var out []string
	for id, blks := range cands {
		for _, blk := range blks {
			decoded++
			if blockIntersects(blk, rect, t0, t1) {
				out = append(out, id)
				break // remaining blocks of this object are pruned undecoded
			}
		}
	}
	t.ins.decoded.Add(int64(decoded))
	t.ins.pruned.Add(int64(t.nblocks - decoded))
	sort.Strings(out)
	return out
}

// blockIntersects reports whether any reconstructed segment of the block
// intersects rect (expanded by the block's recorded error bound) during
// [t0, t1], at segment-bounding-box granularity.
func blockIntersects(blk *Block, rect geo.Rect, t0, t1 float64) bool {
	r := rect.Expand(blk.epsSpace)
	hit := false
	var prev trajectory.Sample
	blk.scan(func(k int, s trajectory.Sample) bool {
		if k == 0 {
			if blk.n == 1 && r.Contains(s.Pos()) && overlaps(s.T, s.T, t0, t1) {
				hit = true
			}
		} else if geo.Seg(prev.Pos(), s.Pos()).Bounds().Intersects(r) && overlaps(prev.T, s.T, t0, t1) {
			hit = true
		}
		prev = s
		return !hit
	})
	return hit
}

// RangePoints returns every sealed sample inside the rectangle during
// [t0, t1], ordered by object ID then time. Reconstructed (interior) samples
// are tested against the rectangle expanded by their block's recorded error
// bound; a block's first and last samples are stored exactly and are tested
// against the rectangle as given. Overlap heads shared between consecutively decoded blocks are
// reported once; the chain's final sample is exact, so callers merging with
// the hot tier can deduplicate the seal boundary by exact comparison.
func (t *Tier) RangePoints(rect geo.Rect, t0, t1 float64) []Hit {
	defer t.ins.querySeconds["points"].ObserveSince(time.Now())
	t.mu.RLock()
	defer t.mu.RUnlock()

	cands := t.candidates(rect, t0, t1)
	ids := make([]string, 0, len(cands))
	for id := range cands {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	decoded := 0
	var out []Hit
	for _, id := range ids {
		prevSeq := -2
		for _, blk := range cands[id] {
			decoded++
			grown := rect.Expand(blk.epsSpace)
			skipHead := blk.cont && blk.seq == prevSeq+1
			blk.scan(func(k int, s trajectory.Sample) bool {
				if k == 0 && skipHead {
					return true // emitted (or filtered) by the previous block
				}
				r := grown
				if k == 0 || k == blk.n-1 {
					r = rect
				}
				if s.T >= t0 && s.T <= t1 && r.Contains(s.Pos()) {
					out = append(out, Hit{ID: id, S: s})
				}
				return true
			})
			prevSeq = blk.seq
		}
	}
	t.ins.decoded.Add(int64(decoded))
	t.ins.pruned.Add(int64(t.nblocks - decoded))
	return out
}

// PositionsAt calls visit with the reconstructed position of every sealed
// object whose chain covers time t, skipping objects for which skip returns
// true (the store passes the set already answered by the hot tier). Gaps
// between non-contiguous seals yield no position, like an unknown object.
func (t *Tier) PositionsAt(at float64, skip func(id string) bool, visit func(id string, pos geo.Point)) {
	defer t.ins.querySeconds["nearest"].ObserveSince(time.Now())
	t.mu.RLock()
	defer t.mu.RUnlock()

	ids := make([]string, 0, len(t.chains))
	for id := range t.chains {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	decoded := 0
	for _, id := range ids {
		if skip != nil && skip(id) {
			continue
		}
		pos, ok, n := t.chains[id].positionAt(at)
		decoded += n
		if ok {
			visit(id, pos)
		}
	}
	t.ins.decoded.Add(int64(decoded))
	t.ins.pruned.Add(int64(t.nblocks - decoded))
}

// PositionAt returns the reconstructed position of one sealed object at
// time t; the boolean is false for unknown objects, times outside the
// sealed span, or times falling in a gap between non-contiguous seals.
func (t *Tier) PositionAt(id string, at float64) (geo.Point, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ch := t.chains[id]
	if ch == nil {
		return geo.Point{}, false
	}
	pos, ok, n := ch.positionAt(at)
	t.ins.decoded.Add(int64(n))
	return pos, ok
}

// positionAt interpolates the chain at time t, returning the number of
// blocks it decoded. The tier's read lock must be held.
func (ch *chain) positionAt(at float64) (geo.Point, bool, int) {
	// Last block whose exact first sample is at or before t.
	i := sort.Search(len(ch.blocks), func(k int) bool { return ch.blocks[k].first.T > at }) - 1
	if i < 0 {
		return geo.Point{}, false, 0
	}
	blk := ch.blocks[i]
	if at > blk.last.T {
		return geo.Point{}, false, 0 // beyond the block: chain end or seal gap
	}
	var prev trajectory.Sample
	var pos geo.Point
	found := false
	blk.scan(func(k int, s trajectory.Sample) bool {
		if s.T >= at {
			if k == 0 || !(s.T > at) {
				pos = s.Pos()
			} else {
				f := (at - prev.T) / (s.T - prev.T)
				pos = prev.Pos().Lerp(s.Pos(), f)
			}
			found = true
			return false
		}
		prev = s
		return true
	})
	return pos, found, 1
}

func overlaps(a0, a1, b0, b1 float64) bool { return a0 <= b1 && b0 <= a1 }

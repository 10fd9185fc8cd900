// Package store is an in-memory moving-object database substrate: the kind
// of system the paper targets ("database support for moving object
// representation and computing"). It ingests time-stamped positions per
// object, optionally compressing them on the fly with an online compressor
// from internal/stream, maintains a spatiotemporal index over runs of the
// retained trajectory, and answers position-at-time and spatiotemporal range
// queries.
//
// # Runs
//
// An object's retained trajectory is cut into runs of consecutive segments:
// a run closes when it holds 32 segments or when one more segment would make
// its bounding box wider or taller than Options.CellSize. Each closed run is
// registered in its shard's index once, with its box and time span, and
// recorded on the object (its first sample and its box) for the refinement
// step of Query. The newest, still growing run is the open run: it is not in
// the index, and Query tests it directly, as it does the buffered tail.
//
// The store demonstrates the paper's storage argument end to end: with an
// OPW-TR or OPW-SP compressor configured, the retained point count — and
// hence the run count, index size and snapshot size — drops by the
// compression rates of the paper's experiments while queries keep working
// within the configured error bound.
//
// # Sharding and consistency
//
// The store is partitioned into a power-of-two number of shards
// (Options.Shards) by the FNV-1a hash of the object ID. Each shard owns its
// objects, their retained trajectories, and its part of the spatiotemporal
// index, under its own lock — so appends to objects on different shards
// never contend, and eviction sweeps one shard at a time instead of stalling
// every writer.
//
// Per-object operations (Append, Snapshot, PositionAt, Retained)
// are atomic: they touch exactly one shard. Cross-object operations (Query,
// QueryWithTolerance, Nearest, IDs, Stats, EvictBefore) visit the
// shards in a fixed order, locking one at a time; each shard's contribution
// is internally consistent, but there is no global snapshot lock, so an
// append racing such an operation may be reflected on some shards and not
// others. For a quiescent store (no concurrent writers) every result is
// exact, and results never mix two states of the same object.
package store

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/seal"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

// IndexKind selects the spatiotemporal index backing Query.
type IndexKind int

const (
	// IndexGrid is a uniform spatial grid — fast inserts, best when data
	// density is roughly uniform and CellSize is well chosen.
	IndexGrid IndexKind = iota
	// IndexRTree is a 3D (x, y, t) R-tree — heavier inserts, robust to
	// skewed data and long time spans without tuning.
	IndexRTree
)

// Options configures a Store.
type Options struct {
	// NewCompressor returns a fresh online compressor for each object; nil
	// stores raw, uncompressed trajectories.
	NewCompressor func() stream.Compressor
	// Index selects the spatiotemporal index; the zero value is IndexGrid.
	Index IndexKind
	// CellSize is the spatial grid cell edge in metres for IndexGrid;
	// 0 selects 1000 m. It also bounds one indexed run's extent, under
	// either index: a run closes before it grows wider or taller than
	// CellSize, so on the grid it covers at most 2×2 cells.
	CellSize float64
	// Shards selects the number of independent store shards. Values ≤ 0
	// select the default max(8, 2×GOMAXPROCS); any other value is rounded
	// up to the next power of two. One shard reproduces the old
	// single-lock store. See the package comment for the consistency
	// model.
	Shards int
	// Metrics selects the registry the store's instruments register in;
	// nil selects metrics.Default(). Instruments are shared by every store
	// on the same registry (process-wide totals, the usual monitoring
	// contract).
	Metrics *metrics.Registry
	// SealEps enables the cold sealed tier (internal/seal) with the given
	// spatial quantization error bound in metres: EvictBefore and SealBefore
	// move aged retained points into quantized sealed blocks instead of
	// dropping them, and range/kNN queries answer over both tiers. 0 (the
	// default) disables sealing, preserving the drop-on-evict behaviour.
	SealEps float64
	// SealBlockPoints caps the samples per sealed block; 0 selects
	// seal.DefaultBlockPoints. Ignored unless SealEps > 0.
	SealBlockPoints int
}

// instruments holds the store's registered metrics; see Options.Metrics.
// All counters and gauges are updated with per-shard deltas, so the totals
// stay additive regardless of the shard count.
type instruments struct {
	appends      *metrics.Counter
	appendErrors *metrics.Counter
	objects      *metrics.Gauge
	retained     *metrics.Gauge
	indexRuns    *metrics.Gauge
	evictions    *metrics.Counter
	evictedPts   *metrics.Counter
	shards       *metrics.Gauge
	querySeconds map[string]*metrics.Histogram // by query kind
}

func newInstruments(r *metrics.Registry) *instruments {
	if r == nil {
		r = metrics.Default()
	}
	kinds := make(map[string]*metrics.Histogram, 5)
	for _, kind := range []string{"range", "tolerance", "nearest", "position", "points"} {
		kinds[kind] = r.Histogram("store_query_seconds", nil, metrics.L("kind", kind))
	}
	return &instruments{
		appends:      r.Counter("store_appends_total"),
		appendErrors: r.Counter("store_append_errors_total"),
		objects:      r.Gauge("store_objects"),
		retained:     r.Gauge("store_retained_samples"),
		indexRuns:    r.Gauge("store_index_runs"),
		evictions:    r.Counter("store_evictions_total"),
		evictedPts:   r.Counter("store_evicted_samples_total"),
		shards:       r.Gauge("store_shards"),
		querySeconds: kinds,
	}
}

// Store is safe for concurrent use. See the package comment for the
// sharding and consistency model.
type Store struct {
	opts   Options
	shards []*shard
	mask   uint32
	ins    *instruments
	// cold is the sealed quantized tier; nil unless Options.SealEps > 0.
	// The tier has its own lock and is never called with a shard lock held
	// except by the sealing sweep (shard → tier, a one-way edge).
	cold *seal.Tier
}

type object struct {
	comp     stream.Compressor
	retained trajectory.Trajectory
	runs     []run // closed runs, oldest first; each is in the shard's index
	open     run   // the open run, retained[open.first:]; not in the index
	lastRaw  trajectory.Sample
	rawSeen  int
}

// runSegments caps the segments of one run.
const runSegments = 32

// run is a stretch of an object's retained trajectory: the segments from
// retained[first] up to the first sample of the next run (for the open run,
// up to the newest retained sample), and the union of their bounding boxes.
// Its time span is that of its samples. A run holds no pointer, so the
// collector does not scan an object's runs.
type run struct {
	first int
	box   geo.Rect // meaningless while the run has no segment
}

// New returns an empty store.
func New(opts Options) *Store {
	if opts.CellSize <= 0 {
		opts.CellSize = 1000
	}
	if opts.NewCompressor != nil {
		// Wrap every per-object compressor so the live compression ratio
		// and window occupancy are observable (internal/stream instruments).
		inner := opts.NewCompressor
		streamIns := stream.NewInstruments(opts.Metrics)
		opts.NewCompressor = func() stream.Compressor {
			return stream.Instrument(inner(), streamIns)
		}
	}
	n := normalizeShards(opts.Shards)
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = &shard{
			objects: make(map[string]*object),
			index:   newIndex(opts),
		}
	}
	st := &Store{
		opts:   opts,
		shards: shards,
		mask:   uint32(n - 1),
		ins:    newInstruments(opts.Metrics),
	}
	if opts.SealEps > 0 {
		st.cold = seal.NewTier(seal.Config{
			Eps:         opts.SealEps,
			BlockPoints: opts.SealBlockPoints,
			Metrics:     opts.Metrics,
		})
	}
	st.ins.shards.Set(float64(n))
	return st
}

// NumShards returns the number of shards the store actually uses (the
// normalized power of two; see Options.Shards).
func (st *Store) NumShards() int { return len(st.shards) }

// Append ingests one observation for the given object. Observations must
// arrive in strictly increasing time order per object.
func (st *Store) Append(id string, s trajectory.Sample) error {
	_, err := st.AppendObserved(id, s)
	return err
}

// AppendObserved is Append, additionally returning the samples whose
// retention became definite through this observation (empty while an
// on-ingest compressor is buffering). Write-ahead logging uses this to
// persist exactly the retained stream.
func (st *Store) AppendObserved(id string, s trajectory.Sample) ([]trajectory.Sample, error) {
	sh := st.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer st.publishLocked(sh)
	_, retained, err := st.appendLocked(sh, nil, id, s)
	return retained, err
}

// AppendBatch ingests a batch of observations for one object, taking the
// object's shard lock once instead of once per sample — the store half of
// the MAPPEND fast path. Samples must be strictly increasing in time and
// follow any earlier observation. On error the first `applied` samples were
// ingested and the rest were not: an intact prefix, never a gap. ss is only
// read: the store keeps copies of the samples, never the slice.
func (st *Store) AppendBatch(id string, ss []trajectory.Sample) (int, error) {
	return st.appendBatch(id, ss, nil)
}

// AppendBatchObserved is AppendBatch, additionally returning the samples
// whose retention became definite, in emission order — the write-ahead
// logging hook, exactly as in AppendObserved.
func (st *Store) AppendBatchObserved(id string, ss []trajectory.Sample) (int, []trajectory.Sample, error) {
	var retained []trajectory.Sample
	applied, err := st.appendBatch(id, ss, &retained)
	return applied, retained, err
}

// appendBatch is the batch ingest body: one shard lock, one object lookup
// and one instrument update for the whole batch. The samples whose retention
// became definite are appended to *retained unless it is nil.
func (st *Store) appendBatch(id string, ss []trajectory.Sample, retained *[]trajectory.Sample) (int, error) {
	if len(ss) == 0 {
		return 0, nil
	}
	sh := st.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer st.publishLocked(sh)
	var obj *object
	for k, s := range ss {
		var emitted []trajectory.Sample
		var err error
		if obj, emitted, err = st.appendLocked(sh, obj, id, s); err != nil {
			return k, err
		}
		if retained != nil {
			*retained = append(*retained, emitted...)
		}
	}
	return len(ss), nil
}

// appendLocked is the single-observation ingest body; the shard lock must
// be held. obj is the object when the caller already looked it up, nil
// otherwise; the object is returned for the caller's next sample, with the
// samples whose retention became definite. In a raw store that is s itself,
// returned as a capped view of the object's trajectory: retained samples are
// only ever appended to or replaced wholesale by eviction, never overwritten
// in place, so the view stays valid after the lock is released.
// Validation happens before any state change, so a rejected sample leaves
// the object exactly as it was, and an object is created only for a sample
// that passed the finiteness check.
func (st *Store) appendLocked(sh *shard, obj *object, id string, s trajectory.Sample) (*object, []trajectory.Sample, error) {
	if !s.IsFinite() {
		st.ins.appendErrors.Inc()
		return obj, nil, fmt.Errorf("store: object %q: %w", id, trajectory.ErrNotFinite)
	}
	if obj == nil {
		obj = st.objectLocked(sh, id)
	}
	if obj.rawSeen > 0 && s.T <= obj.lastRaw.T {
		st.ins.appendErrors.Inc()
		return obj, nil, fmt.Errorf("store: object %q: %w: t=%v after t=%v", id, trajectory.ErrUnsorted, s.T, obj.lastRaw.T)
	}

	var retained []trajectory.Sample
	if obj.comp == nil {
		st.retain(sh, id, obj, s)
		n := obj.retained.Len()
		retained = obj.retained[n-1 : n : n]
	} else {
		emitted, err := obj.comp.Push(s)
		if err != nil {
			st.ins.appendErrors.Inc()
			return obj, nil, fmt.Errorf("store: object %q: %w", id, err)
		}
		for _, e := range emitted {
			st.retain(sh, id, obj, e)
		}
		retained = emitted
	}
	obj.lastRaw = s
	obj.rawSeen++
	sh.rawPts++
	sh.pending.appends++
	return obj, retained, nil
}

// objectLocked returns the object stored under id, creating it (with its
// compressor) when there is none; the shard lock must be held.
func (st *Store) objectLocked(sh *shard, id string) *object {
	obj := sh.objects[id]
	if obj == nil {
		obj = &object{}
		if st.opts.NewCompressor != nil {
			obj.comp = st.opts.NewCompressor()
		}
		sh.objects[id] = obj
		st.ins.objects.Inc()
	}
	return obj
}

// Restore inserts a sample directly into an object's retained trajectory,
// bypassing any on-ingest compressor — the replay path of write-ahead
// logging, where the logged stream is already compressed. Samples must
// arrive in strictly increasing time order per object.
func (st *Store) Restore(id string, s trajectory.Sample) error {
	if !s.IsFinite() {
		return fmt.Errorf("store: object %q: %w", id, trajectory.ErrNotFinite)
	}
	sh := st.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer st.publishLocked(sh)
	obj := st.objectLocked(sh, id)
	if obj.rawSeen > 0 && s.T <= obj.lastRaw.T {
		return fmt.Errorf("store: object %q: %w: t=%v after t=%v", id, trajectory.ErrUnsorted, s.T, obj.lastRaw.T)
	}
	st.retain(sh, id, obj, s)
	obj.lastRaw = s
	obj.rawSeen++
	sh.rawPts++
	sh.pending.appends++
	return nil
}

// retain appends a finalized sample and extends the object's open run by
// the new segment. The shard's lock must be held.
func (st *Store) retain(sh *shard, id string, obj *object, s trajectory.Sample) {
	obj.retained = append(obj.retained, s)
	if n := obj.retained.Len(); n > 1 {
		st.extendRun(sh, id, obj, n-1)
	}
	sh.pending.retained++
}

// extendRun adds the segment retained[i-1] → retained[i] to the object's open
// run, which ends at retained[i-1]. The open run closes first when the
// segment would make its box wider or taller than the cell size, and right
// after when it reaches runSegments segments or its one segment is already
// that wide. Appends and the index rebuild after aging both build runs with
// this function alone, so an aged shard indexes exactly as a freshly filled
// one. The shard's lock must be held.
func (st *Store) extendRun(sh *shard, id string, obj *object, i int) {
	a, b := obj.retained[i-1], obj.retained[i]
	seg := geo.Seg(a.Pos(), b.Pos()).Bounds()
	if i-1 > obj.open.first && st.tooWide(obj.open.box.Union(seg)) {
		st.closeRun(sh, id, obj, i-1)
	}
	if i-1 == obj.open.first {
		obj.open.box = seg
	} else {
		obj.open.box = obj.open.box.Union(seg)
	}
	if i-obj.open.first == runSegments || st.tooWide(obj.open.box) {
		st.closeRun(sh, id, obj, i)
	}
}

// tooWide reports whether a run box exceeds the cell size in either extent.
func (st *Store) tooWide(box geo.Rect) bool {
	return box.Width() > st.opts.CellSize || box.Height() > st.opts.CellSize
}

// closeRun registers the open run, which ends at retained[last], in the
// shard's index and records it on the object; a new, empty open run starts
// at retained[last]. The shard's lock must be held.
func (st *Store) closeRun(sh *shard, id string, obj *object, last int) {
	r := obj.open
	sh.index.insert(id, r.box, obj.retained[r.first].T, obj.retained[last].T)
	obj.runs = append(obj.runs, r)
	obj.open = run{first: last}
	sh.idxRuns++
	sh.pending.runs++
}

// publishLocked moves the shard's pending instrument deltas into the
// registry: one update per instrument per locked section instead of one per
// point, so the totals are exact whenever no append is in flight. The
// shard's lock must be held.
func (st *Store) publishLocked(sh *shard) {
	p := &sh.pending
	if p.appends != 0 {
		st.ins.appends.Add(int64(p.appends))
	}
	if p.retained != 0 {
		st.ins.retained.Add(float64(p.retained))
	}
	if p.runs != 0 {
		st.ins.indexRuns.Add(float64(p.runs))
	}
	*p = pendingDeltas{}
}

// Retained returns only the finalized (post-compression) samples of an
// object, without the buffered tail. This is the stream write-ahead logging
// persists. The boolean is false for unknown objects.
func (st *Store) Retained(id string) (trajectory.Trajectory, bool) {
	sh := st.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	obj := sh.objects[id]
	if obj == nil {
		return nil, false
	}
	return obj.retained.Clone(), true
}

// Snapshot returns the current queryable trajectory of an object: the
// retained samples plus, when on-ingest compression is buffering, the most
// recent raw observation (so the present position is always visible). It
// reads the hot tier only: sealed history is not part of it, and the
// boolean is false for unknown objects and for objects whose whole history
// is sealed.
func (st *Store) Snapshot(id string) (trajectory.Trajectory, bool) {
	sh := st.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	obj := sh.objects[id]
	if obj == nil {
		return nil, false
	}
	return obj.snapshot(), true
}

// snapshot builds the queryable trajectory of the object; the owning
// shard's lock must be held.
func (obj *object) snapshot() trajectory.Trajectory {
	out := make(trajectory.Trajectory, 0, obj.retained.Len()+1)
	out = append(out, obj.retained...)
	if s, ok := obj.tail(); ok {
		out = append(out, s)
	}
	return out
}

// tail returns the newest raw observation when it is not (yet) a retained
// sample: the last sample of snapshot() that obj.retained does not hold.
func (obj *object) tail() (trajectory.Sample, bool) {
	if n := obj.retained.Len(); obj.rawSeen > 0 && (n == 0 || obj.lastRaw.T > obj.retained[n-1].T) {
		return obj.lastRaw, true
	}
	return trajectory.Sample{}, false
}

// locAt is snapshot().LocAt(t) without the copy: Nearest calls it once per
// object, and cloning the whole hot tier per query makes a busy server run
// the collector back to back (TestCrossObjectReadsDoNotCopyTheHotTier).
func (obj *object) locAt(t float64) (geo.Point, bool) {
	s, ok := obj.tail()
	n := obj.retained.Len()
	switch {
	case !ok:
		return obj.retained.LocAt(t)
	case n == 0:
		return trajectory.Trajectory{s}.LocAt(t)
	case t > obj.retained[n-1].T:
		return trajectory.Trajectory{obj.retained[n-1], s}.LocAt(t)
	}
	return obj.retained.LocAt(t)
}

// PositionAt returns the interpolated position of the object at time t:
// from the hot tier where it covers t, else, when sealing is enabled, from
// the cold tier within its error bound. The boolean is false for unknown
// objects or times outside the recorded span.
func (st *Store) PositionAt(id string, t float64) (geo.Point, bool) {
	defer st.ins.querySeconds["position"].ObserveSince(time.Now())
	if pos, ok := st.hotPositionAt(id, t); ok || st.cold == nil {
		return pos, ok
	}
	return st.cold.PositionAt(id, t)
}

func (st *Store) hotPositionAt(id string, t float64) (geo.Point, bool) {
	sh := st.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	obj := sh.objects[id]
	if obj == nil {
		return geo.Point{}, false
	}
	return obj.locAt(t)
}

// IDs returns the identifiers of all stored objects, sorted, including
// objects whose whole history is sealed. Shards are visited in order; see
// the package comment for the consistency model.
func (st *Store) IDs() []string {
	var out []string
	for _, sh := range st.shards {
		sh.mu.RLock()
		for id := range sh.objects {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	if st.cold != nil {
		out = mergeIDs(out, st.cold.IDs())
	}
	return out
}

// Query returns the IDs of objects whose trajectory intersects the spatial
// rectangle during [t0, t1], sorted — the union of the hot retained tier
// and, when sealing is enabled, the cold sealed tier. The test is
// conservative at segment-bounding-box granularity: every truly
// intersecting object is returned; an object whose segment box (but not the
// segment itself) touches the rectangle may be included. The index narrows
// the hot tier to objects with a matching run; within them, only the
// segments of runs whose box and time span match are tested, so the answer
// is the one a test of every segment gives. Sealed history is evaluated
// over quantized blocks with each block's recorded error bound expanding the
// rectangle, so sealing introduces no false negatives.
func (st *Store) Query(rect geo.Rect, t0, t1 float64) []string {
	defer st.ins.querySeconds["range"].ObserveSince(time.Now())
	out := st.queryIDs(rect, t0, t1)
	if st.cold != nil {
		out = mergeIDs(out, st.cold.QueryIDs(rect, t0, t1))
	}
	return out
}

// queryIDs is the shared, untimed range-query body: an ordered sweep over
// the shards. Each shard's index yields the objects with a closed run that
// may match; those are refined segment by segment. Every object's open run,
// buffered tail and lone sample are not in the index and are tested
// directly, so that freshly ingested movement is queryable.
func (st *Store) queryIDs(rect geo.Rect, t0, t1 float64) []string {
	var out []string
	for _, sh := range st.shards {
		sh.mu.RLock()
		cands := sh.index.query(rect, t0, t1)
		for id, obj := range sh.objects {
			if (cands[id] && obj.runsHit(rect, t0, t1)) || obj.openHits(rect, t0, t1) {
				out = append(out, id)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// runsHit reports whether a segment of one of the object's closed runs
// intersects rect during [t0, t1]. The runs are in time order: a binary
// search finds the first that ends at or after t0.
func (obj *object) runsHit(rect geo.Rect, t0, t1 float64) bool {
	end := func(k int) int {
		if k+1 < len(obj.runs) {
			return obj.runs[k+1].first
		}
		return obj.open.first
	}
	k := sort.Search(len(obj.runs), func(k int) bool { return obj.retained[end(k)].T >= t0 })
	for ; k < len(obj.runs) && obj.retained[obj.runs[k].first].T <= t1; k++ {
		if obj.runs[k].box.Intersects(rect) && obj.segmentsHit(obj.runs[k].first, end(k), rect, t0, t1) {
			return true
		}
	}
	return false
}

// openHits reports whether what the index does not hold intersects rect
// during [t0, t1]: a segment of the open run, the buffered tail segment (last
// retained sample → newest raw fix), or an object's only sample as a
// zero-length segment. Like the index, the open run matches nothing when
// t1 < t0.
func (obj *object) openHits(rect geo.Rect, t0, t1 float64) bool {
	n := obj.retained.Len()
	if n-1 > obj.open.first && t0 <= t1 && obj.open.box.Intersects(rect) &&
		obj.segmentsHit(obj.open.first, n-1, rect, t0, t1) {
		return true
	}
	b, hasTail := obj.tail()
	a := b // nothing retained: the buffered fix alone
	switch {
	case hasTail && n > 0:
		a = obj.retained[n-1]
	case hasTail:
	case n == 1:
		a, b = obj.retained[0], obj.retained[0] // a zero-length segment
	default:
		return false // every segment is in a run (or the object is empty)
	}
	return segmentHits(a, b, rect, t0, t1)
}

// segmentsHit reports whether a segment retained[i] → retained[i+1] with
// from ≤ i < to intersects rect during [t0, t1].
func (obj *object) segmentsHit(from, to int, rect geo.Rect, t0, t1 float64) bool {
	for i := from; i < to; i++ {
		a, b := obj.retained[i], obj.retained[i+1]
		if a.T > t1 {
			break
		}
		if segmentHits(a, b, rect, t0, t1) {
			return true
		}
	}
	return false
}

// segmentHits is the per-segment test: the segment's bounding box meets rect
// and its time interval overlaps [t0, t1].
func segmentHits(a, b trajectory.Sample, rect geo.Rect, t0, t1 float64) bool {
	return overlaps(a.T, b.T, t0, t1) && geo.Seg(a.Pos(), b.Pos()).Bounds().Intersects(rect)
}

// EvictBefore removes all retained samples older than t (exclusive) from
// the hot tier and rebuilds the spatiotemporal index — the data-aging
// countermeasure for the paper's "enormous volumes of data": a tracking
// service keeps a rolling hot window instead of unbounded history. With
// sealing enabled (Options.SealEps) the aged samples are not lost: they are
// sealed into the cold quantized tier (seal-on-evict) and remain queryable
// through Query/Nearest/RangePoints. Without sealing they are dropped, the
// original behaviour. Objects whose entire history (including their newest
// observation) predates t are removed from the hot tier outright. Samples
// still buffered inside an on-ingest compressor are untouched, so t should
// lag the newest data by more than the compressor's window span.
//
// The sweep proceeds shard by shard, holding only one shard's lock at a
// time: appends to other shards are never stalled behind an index rebuild.
// It returns the number of retained samples removed from the hot tier.
func (st *Store) EvictBefore(t float64) int {
	removed, _ := st.ageBefore(t, st.cold != nil)
	return removed
}

// ageBefore sweeps every shard, sealing (when sealing is set) or dropping
// retained samples older than t. The first seal-encoding error is returned;
// an object whose run fails to seal keeps its samples hot rather than
// losing them.
func (st *Store) ageBefore(t float64, sealing bool) (int, error) {
	removed := 0
	var firstErr error
	for _, sh := range st.shards {
		n, err := st.ageShard(sh, t, sealing)
		removed += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	st.ins.evictions.Inc()
	st.ins.evictedPts.Add(int64(removed))
	return removed, firstErr
}

// ageShard ages out one shard and rebuilds its runs and index. With sealing
// set, each object's aged run — including the first surviving sample as an
// overlap head, so the hot/cold boundary stays interpolable — is sealed
// into the cold tier before it leaves the hot tier. The shard → tier lock
// edge is one-way: the tier never calls back into the store.
func (st *Store) ageShard(sh *shard, t float64, sealing bool) (int, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()

	removed := 0
	dropped := 0
	var firstErr error
	for id, obj := range sh.objects {
		n := obj.retained.Len()
		cut := 0
		for cut < n && obj.retained[cut].T < t {
			cut++
		}
		if cut > 0 {
			if sealing {
				run := obj.retained[:cut]
				if cut < n {
					run = obj.retained[:cut+1] // overlap head: sealed once, kept hot
				}
				if err := st.cold.Seal(id, run); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue // unsealable: keep the samples hot, never lose them
				}
			}
			removed += cut
			obj.retained = append(trajectory.Trajectory(nil), obj.retained[cut:]...)
		}
		if obj.retained.Len() == 0 && obj.lastRaw.T < t {
			delete(sh.objects, id)
			dropped++
		}
	}

	// Rebuild this shard's runs and index over the surviving samples.
	sh.index = newIndex(st.opts)
	sh.pending.runs -= sh.idxRuns
	sh.idxRuns = 0
	for id, obj := range sh.objects {
		obj.runs, obj.open = nil, run{}
		for i := 1; i < obj.retained.Len(); i++ {
			st.extendRun(sh, id, obj, i)
		}
	}

	st.ins.objects.Add(-float64(dropped))
	st.ins.retained.Add(-float64(removed))
	st.publishLocked(sh)
	return removed, firstErr
}

// QueryWithTolerance is Query with the rectangle expanded by the on-ingest
// compressor's error bound eps (metres). When every stored trajectory
// satisfies a synchronized max-error ≤ eps guarantee — as the OPW-TR and
// OPW-SP compressors ensure for their distance threshold — the expanded
// query returns every object whose ORIGINAL (uncompressed) movement
// intersected the rectangle during [t0, t1]: compression introduces no
// false negatives.
func (st *Store) QueryWithTolerance(rect geo.Rect, t0, t1, eps float64) []string {
	defer st.ins.querySeconds["tolerance"].ObserveSince(time.Now())
	if eps < 0 {
		eps = 0
	}
	out := st.queryIDs(rect.Expand(eps), t0, t1)
	if st.cold != nil {
		out = mergeIDs(out, st.cold.QueryIDs(rect.Expand(eps), t0, t1))
	}
	return out
}

// Neighbor is one nearest-neighbour result.
type Neighbor struct {
	ID   string
	Pos  geo.Point
	Dist float64
}

// Nearest returns the k objects closest to q at time t (objects without a
// position at t are skipped), ordered by increasing distance. Fewer than k
// results are returned when fewer objects are live at t, and none for a
// non-finite q or t (outside everything, not an error). When sealing is
// enabled, objects whose position at t lives only in the cold tier are
// answered from their sealed blocks, within the tier's error bound; the hot
// tier wins for objects present in both. Shards are visited in order; see
// the package comment for the consistency model.
func (st *Store) Nearest(q geo.Point, t float64, k int) []Neighbor {
	defer st.ins.querySeconds["nearest"].ObserveSince(time.Now())
	// A non-finite query point is near nothing: every distance to it is NaN
	// or +Inf, which the sort below cannot order.
	if k <= 0 || !q.IsFinite() {
		return nil
	}
	var all []Neighbor
	hot := make(map[string]bool)
	for _, sh := range st.shards {
		sh.mu.RLock()
		for id, obj := range sh.objects {
			pos, ok := obj.locAt(t)
			if !ok {
				continue
			}
			hot[id] = true
			all = append(all, Neighbor{ID: id, Pos: pos, Dist: pos.Dist(q)})
		}
		sh.mu.RUnlock()
	}
	if st.cold != nil {
		st.cold.PositionsAt(t, func(id string) bool { return hot[id] }, func(id string, pos geo.Point) {
			all = append(all, Neighbor{ID: id, Pos: pos, Dist: pos.Dist(q)})
		})
	}

	sort.Slice(all, func(i, j int) bool {
		//lint:allow floatcmp deterministic sort tie-break on identical distances
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Stats summarizes storage effectiveness.
type Stats struct {
	Objects        int     // hot and sealed-only objects
	RawPoints      int     // observations ingested
	RetainedPoints int     // points kept after on-ingest compression
	CompressionPct float64 // % of ingested points discarded
	// PointsPerObject maps each hot object ID to its retained point count,
	// captured in the same locked pass as that object's shard totals, so
	// the breakdown always sums to RetainedPoints.
	PointsPerObject map[string]int
	// Cold sealed tier totals; all zero when sealing is disabled.
	SealedBlocks int
	SealedPoints int
	SealedBytes  int64
}

// Stats returns current storage statistics. Each shard contributes one
// internally consistent snapshot; shards are visited in order without a
// global lock (see the package comment), so under concurrent appends the
// totals may straddle shard states while still summing consistently per
// shard.
func (st *Store) Stats() Stats {
	s := Stats{PointsPerObject: make(map[string]int)}
	for _, sh := range st.shards {
		sh.mu.RLock()
		s.RawPoints += sh.rawPts
		for id, obj := range sh.objects {
			n := obj.retained.Len()
			s.RetainedPoints += n
			s.PointsPerObject[id] = n
		}
		sh.mu.RUnlock()
	}
	if s.RawPoints > 0 {
		s.CompressionPct = 100 * float64(s.RawPoints-s.RetainedPoints) / float64(s.RawPoints)
	}
	s.Objects = len(s.PointsPerObject)
	if st.cold != nil {
		for _, id := range st.cold.IDs() {
			if _, hot := s.PointsPerObject[id]; !hot {
				s.Objects++
			}
		}
		s.SealedBlocks = st.cold.Blocks()
		s.SealedPoints = st.cold.Points()
		s.SealedBytes = st.cold.CompressedBytes()
	}
	return s
}

func overlaps(a0, a1, b0, b1 float64) bool { return a0 <= b1 && b0 <= a1 }

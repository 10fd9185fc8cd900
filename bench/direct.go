package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/rtree"
	"repro/internal/seal"
	"repro/internal/sed"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

// Direct calls (method (b) of README.md): the run's generated fleet is fed
// straight to each layer's public functions on one goroutine, with
// runtime.MemStats deltas for allocations. These figures do not depend on
// the workload, only on the seed and the run length.

// streamSpecs are the online compressors measured side by side at 30 m; the
// metric suffix is the spec with ':' replaced, since metric names cannot
// carry one.
var streamSpecs = []string{"opwtr:30", "opwsp:30:15", "nopw:30", "dr:30", "operb:30", "ciseds:30", "cisedw:30"}

func specSuffix(spec string) string { return strings.ReplaceAll(spec, ":", "-") }

// Sizes of the direct runs: enough for a steady per-point figure, small
// enough that all of them together take a few seconds.
const (
	directPoints   = 240000 // samples fed to each per-point measurement
	directQueries  = 400    // queries per per-query measurement
	busPoints      = 40000  // points published per bus regime
	busFanPoints   = 4000   // the same, with 128 subscribers
	busSubscribers = 128
)

// mallocs returns the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// directInput is the slice of the fleet the direct calls use: whole trips,
// up to directPoints samples, each capped at what the run sent.
type directInput struct {
	ids   []string
	trips []trajectory.Trajectory
	n     int
}

func (s *session) directInput() directInput {
	var in directInput
	upto := s.sz.main[1]
	for i, trip := range s.fleet.trips {
		if in.n >= directPoints {
			break
		}
		trip = trip[:min(upto, len(trip))]
		in.ids = append(in.ids, s.fleet.ids[i])
		in.trips = append(in.trips, trip)
		in.n += len(trip)
	}
	return in
}

// eachInFleetOrder visits the samples in the order a gateway would send
// them: sample k of every object before sample k+1 of any.
func (in directInput) eachInFleetOrder(fn func(i int, s trajectory.Sample)) {
	for k := 0; ; k++ {
		any := false
		for i, trip := range in.trips {
			if k < len(trip) {
				fn(i, trip[k])
				any = true
			}
		}
		if !any {
			return
		}
	}
}

// directMetrics runs every direct measurement and stores the results in v.
func directMetrics(v map[string]float64, s *session, dir string) error {
	in := s.directInput()
	if in.n == 0 {
		return fmt.Errorf("direct calls: no input")
	}
	if err := directStream(v, in); err != nil {
		return err
	}
	// Query cases are anchored on the objects the direct stores hold.
	sub := fleet{ids: in.ids, trips: in.trips}
	t0, t1 := sub.span(s.sz.main[1])
	cases := sub.queryPlan(s.cfg.seed, s.sz.main[1], (t0+t1)/2, directQueries, make([]float64, len(in.trips)))
	retained, err := directStore(v, in, cases)
	if err != nil {
		return err
	}
	directRTree(v, retained, cases)
	if err := directSeal(v, in.ids, retained, cases); err != nil {
		return err
	}
	if err := directWAL(v, in, filepath.Join(dir, "direct.wal")); err != nil {
		return err
	}
	directBus(v, in)
	return directCodec(v, in)
}

// directStream measures every online compressor at 30 m: cost per pushed
// point, allocations, compression, and the worst synchronized error of what
// it kept.
func directStream(v map[string]float64, in directInput) error {
	for _, spec := range streamSpecs {
		factory, err := stream.ParseFactory(spec)
		if err != nil {
			return err
		}
		kept := make([]trajectory.Trajectory, len(in.trips))
		for i, trip := range in.trips {
			kept[i] = make(trajectory.Trajectory, 0, len(trip))
		}
		m0 := mallocs()
		var busy time.Duration
		out := 0
		for i, trip := range in.trips {
			c := factory()
			t0 := time.Now()
			for _, smp := range trip {
				emitted, err := c.Push(smp)
				if err != nil {
					return fmt.Errorf("%s: %w", spec, err)
				}
				kept[i] = append(kept[i], emitted...)
			}
			kept[i] = append(kept[i], c.Flush()...)
			busy += time.Since(t0)
			out += len(kept[i])
		}
		allocs := mallocs() - m0
		worst := 0.0
		for i, trip := range in.trips {
			if len(kept[i]) < 2 || len(trip) < 2 {
				continue
			}
			e, err := sed.MaxError(trip, kept[i])
			if err != nil {
				return fmt.Errorf("%s: %w", spec, err)
			}
			worst = math.Max(worst, e)
		}
		sfx := "." + specSuffix(spec)
		v["stream.push_ns_per_point"+sfx] = float64(busy) / float64(in.n)
		v["stream.allocs_per_point"+sfx] = float64(allocs) / float64(in.n)
		v["stream.compression_pct"+sfx] = 100 * (1 - float64(out)/float64(in.n))
		v["stream.max_sed_m"+sfx] = worst
	}
	return nil
}

// directStore appends the input to a store configured as deployed
// (opwtr:30) over each spatiotemporal index in turn, then asks it ID range
// queries: both sides of the indexes' read/write trade. The grid run, the
// default, also supplies the ".direct" figures and each object's retained
// samples for the measurements that follow.
func directStore(v map[string]float64, in directInput, cases []queryCase) ([]trajectory.Trajectory, error) {
	factory, err := stream.ParseFactory("opwtr:30")
	if err != nil {
		return nil, err
	}
	var retained []trajectory.Trajectory
	for _, ix := range []struct {
		name string
		kind store.IndexKind
	}{{"grid", store.IndexGrid}, {"rtree", store.IndexRTree}} {
		h0 := heapInUse()
		st := store.New(store.Options{NewCompressor: factory, CellSize: 1000, Index: ix.kind})
		m0 := mallocs()
		t0 := time.Now()
		var appendErr error
		in.eachInFleetOrder(func(i int, smp trajectory.Sample) {
			if err := st.Append(in.ids[i], smp); err != nil && appendErr == nil {
				appendErr = err
			}
		})
		busy := time.Since(t0)
		allocs := mallocs() - m0
		if appendErr != nil {
			return nil, appendErr
		}
		v["store.append_ns_per_point."+ix.name] = float64(busy) / float64(in.n)
		if ix.kind == store.IndexGrid {
			heap := heapInUse() - h0
			v["store.append_ns_per_point.direct"] = float64(busy) / float64(in.n)
			v["store.allocs_per_point.direct"] = float64(allocs) / float64(in.n)
			v["store.heap_bytes_per_retained_point"] = float64(heap) / float64(max(1, st.Stats().RetainedPoints))
			retained = make([]trajectory.Trajectory, len(in.ids))
			for i, id := range in.ids {
				retained[i], _ = st.Retained(id)
			}
		}
		queries := 0
		t0 = time.Now()
		for _, q := range cases {
			if q.kind == rangeHot || q.kind == rangeCold {
				st.Query(q.rect, q.t0, q.t1)
				queries++
			}
		}
		v["store.query_ids_us_per_query."+ix.name] = float64(time.Since(t0)) / 1e3 / float64(max(1, queries))
	}
	return retained, nil
}

// segmentBoxes returns the (x, y, t) boxes of consecutive retained samples.
func segmentBoxes(retained []trajectory.Trajectory) []rtree.Box {
	var boxes []rtree.Box
	for _, tr := range retained {
		for k := 0; k+1 < len(tr); k++ {
			boxes = append(boxes, rtree.Box{Rect: geo.Seg(tr[k].Pos(), tr[k+1].Pos()).Bounds(), T0: tr[k].T, T1: tr[k+1].T})
		}
	}
	return boxes
}

func directRTree(v map[string]float64, retained []trajectory.Trajectory, cases []queryCase) {
	boxes := segmentBoxes(retained)
	tree := rtree.New()
	t0 := time.Now()
	for _, b := range boxes {
		tree.Insert(b, "")
	}
	v["rtree.insert_ns_per_box"] = float64(time.Since(t0)) / float64(max(1, len(boxes)))
	queries := 0
	t0 = time.Now()
	for _, q := range cases {
		if q.kind == rangeHot || q.kind == rangeCold {
			tree.Search(rtree.Box{Rect: q.rect, T0: q.t0, T1: q.t1}, func(string) bool { return true })
			queries++
		}
	}
	v["rtree.search_us_per_query"] = float64(time.Since(t0)) / 1e3 / float64(max(1, queries))
}

// directSeal seals every object's retained run into a bare seal.Tier and
// queries it, without the store's merge with the hot tier.
func directSeal(v map[string]float64, ids []string, retained []trajectory.Trajectory, cases []queryCase) error {
	tier := seal.NewTier(seal.Config{Eps: 10, BlockPoints: 512})
	points := 0
	t0 := time.Now()
	for i, tr := range retained {
		if len(tr) == 0 {
			continue
		}
		if err := tier.Seal(ids[i], tr); err != nil {
			return err
		}
		points += len(tr)
	}
	v["seal.tier_seal_ns_per_point.direct"] = float64(time.Since(t0)) / float64(max(1, points))
	queries := 0
	t0 = time.Now()
	for _, q := range cases {
		if q.kind == rangeHot || q.kind == rangeCold {
			tier.RangePoints(q.rect, q.t0, q.t1)
			queries++
		}
	}
	v["seal.tier_range_us_per_query.direct"] = float64(time.Since(t0)) / 1e3 / float64(max(1, queries))
	return nil
}

// directWAL writes the input to a log without waiting for fsyncs, closes it
// and times the reopen: the replay cost recovery_s is made of.
func directWAL(v map[string]float64, in directInput, path string) error {
	d, err := wal.OpenDurable(path, store.Options{})
	if err != nil {
		return err
	}
	d.SetSyncEvery(1 << 30)
	var appendErr error
	in.eachInFleetOrder(func(i int, smp trajectory.Sample) {
		if err := d.Append(in.ids[i], smp); err != nil && appendErr == nil {
			appendErr = err
		}
	})
	if err := d.Close(); appendErr == nil {
		appendErr = err
	}
	if appendErr != nil {
		return appendErr
	}
	t0 := time.Now()
	d, err = wal.OpenDurable(path, store.Options{})
	if err != nil {
		return err
	}
	replay := time.Since(t0)
	records := d.Stats().RawPoints
	if err := d.Close(); err != nil {
		return err
	}
	v["wal.replay_ns_per_record"] = float64(replay) / float64(max(1, records))
	return nil
}

// directBus publishes the input through a bare bus under five subscriber
// regimes, with one publisher goroutine (this one) and one drainer.
func directBus(v map[string]float64, in directInput) {
	type regime struct {
		name   string
		subs   int
		points int
		opts   func() bus.SubOptions
	}
	wild := func() bus.SubOptions { return bus.SubOptions{ID: "*"} }
	// The geofence covers a quarter of the depot area.
	box := geo.Rect{Min: geo.Pt(-fleetSpread/4, -fleetSpread/4), Max: geo.Pt(fleetSpread/4, fleetSpread/4)}
	opwtr, _ := stream.ParseFactory("opwtr:30") // a constant spec: cannot fail
	regimes := []regime{
		{"subs0", 0, busPoints, wild},
		{"subs1", 1, busPoints, wild},
		{"subs128", busSubscribers, busFanPoints, wild},
		{"subs128-box", busSubscribers, busFanPoints, func() bus.SubOptions { return bus.SubOptions{Box: &box} }},
		{"subs1-opwtr-30", 1, busPoints, func() bus.SubOptions { return bus.SubOptions{ID: "*", NewComp: opwtr} }},
	}
	for _, rg := range regimes {
		b := bus.New(bus.Options{})
		subs := make([]*bus.Subscriber, rg.subs)
		for i := range subs {
			subs[i] = b.Subscribe(rg.opts())
		}
		// One drainer serves every subscriber in turn; Drain blocks until
		// its subscriber has lines or the feed is closed.
		var wg sync.WaitGroup
		var lines, calls int
		if len(subs) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []string
				live := len(subs)
				done := make([]bool, len(subs))
				for live > 0 {
					for i, sub := range subs {
						if done[i] {
							continue
						}
						var open bool
						buf, open = sub.Drain(buf)
						lines += len(buf)
						calls++
						if !open {
							done[i] = true
							live--
						}
					}
				}
			}()
		}
		published := 0
		t0 := time.Now()
		in.eachInFleetOrder(func(i int, smp trajectory.Sample) {
			if published < rg.points {
				b.Publish(in.ids[i], smp)
				published++
			}
		})
		busy := time.Since(t0)
		b.CloseAll()
		wg.Wait()
		v["bus.publish_ns_per_point."+rg.name] = float64(busy) / float64(max(1, published))
		switch rg.name {
		case "subs1":
			v["bus.drain_lines_per_call"] = float64(lines) / float64(max(1, calls))
		case "subs128":
			offered := published * rg.subs
			v["bus.dropped_share.subs128"] = float64(offered-lines) / float64(max(1, offered))
		}
	}

	n := 0
	t0 := time.Now()
	in.eachInFleetOrder(func(i int, smp trajectory.Sample) {
		if n < busPoints {
			_ = bus.PosLine(in.ids[i], smp)
			n++
		}
	})
	v["bus.posline_ns_per_line"] = float64(time.Since(t0)) / float64(max(1, n))
}

// directCodec encodes every trip in the binary record format: the baseline
// a binary wire frame would start from.
func directCodec(v map[string]float64, in directInput) error {
	var buf bytes.Buffer
	size := 0
	t0 := time.Now()
	for _, trip := range in.trips {
		buf.Reset()
		if err := codec.Encode(&buf, trip); err != nil {
			return err
		}
		size += buf.Len()
	}
	v["codec.encode_ns_per_point"] = float64(time.Since(t0)) / float64(in.n)
	v["codec.bytes_per_point"] = float64(size) / float64(in.n)
	return nil
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Registry counters read at phase edges in the traced run.
var edgeCounters = []string{
	"stream_points_in_total", "stream_points_out_total",
	"seal_blocks_decoded_total", "seal_blocks_pruned_total",
	"wal_records_total",
}

// stackRun is what one pass of the workload over an in-process stack left
// behind for the per-layer metrics.
type stackRun struct {
	s            *session
	sealedPoints int
	sealedBytes  int64
	walPath      string
}

// runOnStack drives the session's phases against an in-process stack,
// decorated when t is not nil. The stack is closed before it returns.
func runOnStack(s *session, t *tracer, dir string) (run stackRun, err error) {
	run.s = s
	if s.cfg.w.wal {
		run.walPath = filepath.Join(dir, "bench.wal")
	}
	k, err := buildStack(s.cfg.w, run.walPath, t)
	if err != nil {
		return run, err
	}
	defer func() {
		if cerr := k.close(); err == nil {
			err = cerr
		}
		if s.ctl != nil {
			_ = s.ctl.Close() // the server is gone; nothing to flush
		}
	}()
	s.trace = t
	s.snapshot = func() edge {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		e := edge{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, counters: make(map[string]float64, len(edgeCounters))}
		for _, name := range edgeCounters {
			e.counters[name] = k.counter(name)
		}
		return e
	}
	if err := s.connect(k.addr()); err != nil {
		return run, err
	}
	if err := s.beforeMain(); err != nil {
		return run, err
	}
	if err := s.timed(); err != nil {
		return run, err
	}
	if _, err := s.verify(); err != nil {
		return run, err
	}
	run.sealedPoints, run.sealedBytes = k.st.SealedPoints(), k.st.SealedBytes()
	return run, nil
}

// runTraced produces every per-layer metric for one workload: the workload's
// first quarter replayed against an undecorated in-process stack (for the
// allocation counts and the overhead baseline), then against a decorated one
// (for the spans), then the direct calls into each layer. The direct-call
// figures do not depend on the workload: they are measured when *direct is
// nil and left there, so a suite measures them once.
func runTraced(cfg runConfig, spansPath string, direct *map[string]float64) (*runResult, error) {
	wall := time.Now()
	cfg.quarter = true
	dir, err := os.MkdirTemp(cfg.tmpRoot, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) // WAL files go on every exit path

	plainSession, err := newSession(cfg, nil)
	if err != nil {
		return nil, err
	}
	plainDir := filepath.Join(dir, "plain")
	tracedDir := filepath.Join(dir, "traced")
	for _, d := range []string{plainDir, tracedDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return nil, err
		}
	}
	plain, err := runOnStack(plainSession, nil, plainDir)
	if err != nil {
		return nil, fmt.Errorf("undecorated stack: %w", err)
	}

	s, err := newSession(cfg, &plainSession.fleet)
	if err != nil {
		return nil, err
	}
	sz := s.sz
	// One span per command on each side of the wire, one per pushed point,
	// a few per WAL record, and room for the control plane.
	commands := 0
	for _, reqs := range s.mainReqs {
		commands += len(reqs)
	}
	capacity := 2*commands + sz.points(sz.main) + 6*commands +
		2*sz.warmCycles*int(numQueryKinds) + 4*sz.objects + 4096
	if cfg.w.mainQueries {
		capacity += int(cfg.seconds * 20000) // the reader's count is set by the clock
	}
	t := newTracer(s.clk, s.fleet, capacity)
	traced, err := runOnStack(s, t, tracedDir)
	if err != nil {
		return nil, fmt.Errorf("decorated stack: %w", err)
	}
	if spansPath != "" {
		if err := t.writeSpans(spansPath); err != nil {
			return nil, err
		}
	}

	res := s.res
	res.Attempted += plainSession.res.Attempted
	res.fail(plainSession.res.Failed, nil)
	res.Failures = append(res.Failures, plainSession.res.Failures...)
	layerMetrics(res.Values, plain, traced, t)
	if dropped := t.dropped.Load(); dropped > 0 {
		res.check(fmt.Errorf("span buffer overflowed: %d spans dropped", dropped))
	}
	if *direct == nil {
		v := map[string]float64{}
		if err := directMetrics(v, s, dir); err != nil {
			return nil, err
		}
		*direct = v
	}
	for name, v := range *direct {
		res.Values[name] = v
	}
	res.Seconds = time.Since(wall).Seconds()
	return res, nil
}

// layerMetrics derives the traced-stack metrics (method (a) of README.md)
// from the spans, the phase edges and the undecorated baseline.
func layerMetrics(v map[string]float64, plain, traced stackRun, t *tracer) {
	s := traced.s
	w := s.cfg.w
	spans := t.recorded()
	inMain := func(sp *span) bool { return sp.start >= s.main.start && sp.end <= s.main.end }

	// Join client and Backend spans by request id.
	client := make(map[uint64]int32, len(spans)/4)
	for i := range spans {
		if sp := &spans[i]; sp.kind == spAppendRTT || sp.kind == spQueryRTT {
			client[sp.req] = int32(i)
		}
	}

	var rtt, backend, push, fsWrite, fsSync, fsOther, walBytes int64
	var syncs int64
	var points int64
	type agg struct {
		n                 int64
		rtt, backend, ret int64
	}
	var q [numQueryKinds]agg
	var sealNs, sealed int64
	for i := range spans {
		sp := &spans[i]
		d := sp.end - sp.start
		switch sp.kind {
		case spBackendAppend:
			ci, ok := client[sp.req]
			if !ok {
				continue
			}
			// Linking the pair gives the Backend span its parent.
			sp.parent = ci
			c := &spans[ci]
			if !inMain(c) {
				continue
			}
			rtt += c.end - c.start
			backend += d
			points += sp.n
		case spPush:
			if inMain(sp) {
				push += d
			}
		case spFSWrite:
			if inMain(sp) {
				fsWrite += d
				walBytes += sp.n
			}
		case spFSSync:
			if inMain(sp) {
				fsSync += d
				syncs++
			}
		case spFSOther:
			if inMain(sp) {
				fsOther += d
			}
		case spBackendRange, spBackendNearest, spBackendPosition:
			ci, ok := client[sp.req]
			if !ok {
				continue
			}
			sp.parent = ci
			c := &spans[ci]
			if c.warm {
				continue
			}
			a := &q[c.sub]
			a.n++
			a.rtt += c.end - c.start
			a.backend += d
			a.ret += sp.n
		case spBackendSeal:
			sealNs += d
			sealed += sp.n
		}
	}
	per := func(total, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}

	v["server.rtt_ns_per_point"] = per(rtt, points)
	v["server.self_ns_per_point"] = per(rtt-backend, points)
	v["stream.push_ns_per_point"] = per(push, points)
	if w.wal {
		v["store.append_self_ns_per_point"] = 0 // inside wal.self_ns_per_point: the Backend is the DurableStore
		v["wal.append_span_ns_per_point"] = per(backend, points)
		v["wal.self_ns_per_point"] = per(backend-push-fsWrite-fsSync-fsOther, points)
	} else {
		v["store.append_self_ns_per_point"] = per(backend-push, points)
		v["wal.append_span_ns_per_point"] = 0
		v["wal.self_ns_per_point"] = 0
	}
	v["wal.fs_write_ns_per_point"] = per(fsWrite, points)
	v["wal.fs_sync_ns_per_point"] = per(fsSync, points)
	v["wal.fsyncs_per_1k_points"] = 1000 * per(syncs, points)
	delta := func(m phaseMark, name string) float64 { return m.after.counters[name] - m.before.counters[name] }
	v["wal.records_per_fsync"] = 0
	if syncs > 0 {
		v["wal.records_per_fsync"] = delta(s.main, "wal_records_total") / float64(syncs)
	}
	v["wal.bytes_per_point"] = per(walBytes, points)

	in, out := delta(s.main, "stream_points_in_total"), delta(s.main, "stream_points_out_total")
	v["stream.points_in"] = in
	v["stream.points_out"] = out
	v["stream.compression_pct"] = 0
	if in > 0 {
		v["stream.compression_pct"] = 100 * (1 - out/in)
	}

	// Allocation counts come from the undecorated pass: the decorators and
	// the span buffer would be counted otherwise.
	pm := plain.s.main
	v["stack.allocs_per_point"] = per(int64(pm.after.mallocs-pm.before.mallocs), int64(pm.points))
	v["stack.alloc_bytes_per_point"] = per(int64(pm.after.allocBytes-pm.before.allocBytes), int64(pm.points))

	var all agg
	for k := range q {
		all.n += q[k].n
		all.rtt += q[k].rtt
		all.backend += q[k].backend
	}
	qr := s.queries
	var replyBytes int64
	for k := range qr.bytes {
		replyBytes += int64(qr.bytes[k])
	}
	v["server.self_us_per_query"] = per(all.rtt-all.backend, all.n) / 1e3
	v["server.response_bytes_per_query"] = per(replyBytes, all.n)
	v["store.range_hot_us_per_query"] = per(q[rangeHot].backend, q[rangeHot].n) / 1e3
	v["store.nearest_hot_us_per_query"] = per(q[nearestHot].backend, q[nearestHot].n) / 1e3
	v["store.position_us_per_query"] = per(q[position].backend, q[position].n) / 1e3
	v["store.points_returned_per_range_query"] = per(q[rangeHot].ret+q[rangeCold].ret, q[rangeHot].n+q[rangeCold].n)

	// The seal layer exists only where the workload has a cold tier; a
	// "cold" window elsewhere is answered by the store and counted there.
	for _, name := range []string{
		"seal.range_cold_us_per_query", "seal.nearest_cold_us_per_query",
		"seal.blocks_decoded_per_query", "seal.blocks_pruned_per_query", "seal.prune_share",
		"seal.seal_ns_per_point", "seal.bytes_per_point", "seal.footprint_ratio",
	} {
		v[name] = 0
	}
	if w.sealEps > 0 {
		v["seal.range_cold_us_per_query"] = per(q[rangeCold].backend, q[rangeCold].n) / 1e3
		v["seal.nearest_cold_us_per_query"] = per(q[nearestCold].backend, q[nearestCold].n) / 1e3
		decoded, pruned := delta(s.query, "seal_blocks_decoded_total"), delta(s.query, "seal_blocks_pruned_total")
		// Every range and nearest query consults the tier, warm-up included.
		consults := float64(qr.commands) * 4 / float64(numQueryKinds)
		if consults > 0 {
			v["seal.blocks_decoded_per_query"] = decoded / consults
			v["seal.blocks_pruned_per_query"] = pruned / consults
		}
		if decoded+pruned > 0 {
			v["seal.prune_share"] = pruned / (decoded + pruned)
		}
		v["seal.seal_ns_per_point"] = per(sealNs, sealed)
		if traced.sealedPoints > 0 {
			v["seal.bytes_per_point"] = float64(traced.sealedBytes) / float64(traced.sealedPoints)
			v["seal.footprint_ratio"] = rawSampleBytes * float64(traced.sealedPoints) / float64(traced.sealedBytes)
		}
	}

	// Overhead of the decorators: the same work's client-side busy time on
	// the decorated and the undecorated stack.
	busyPlain := plain.s.main.busy + plain.s.query.busy
	busyTraced := s.main.busy + s.query.busy
	v["trace.overhead_pct"] = 0
	if busyPlain > 0 {
		v["trace.overhead_pct"] = 100 * float64(busyTraced-busyPlain) / float64(busyPlain)
	}
	v["trace.spans"] = float64(len(spans))
	if w.closedLoop() {
		// No schedule to run late against; the open loops set these in notePaced.
		v["gen.lateness_p99_ms"], v["gen.backlog_at_end"] = 0, 0
	}
}

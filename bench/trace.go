package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

// The traced run records a span around every call that crosses a public
// interface of the stack: the client's round trip, the server.Backend
// method it causes, the stream.Compressor pushes inside that, and the
// fault.FS calls the WAL makes. All decorators live here; nothing inside the
// server is touched. Spans go into one preallocated buffer and are written
// out, if asked, when the run ends.

type spanKind uint8

const (
	spAppendRTT       spanKind = iota // client: one APPEND or MAPPEND round trip
	spQueryRTT                        // client: one query round trip
	spBackendAppend                   // Backend.Append / AppendBatch
	spBackendRange                    // Backend.RangePoints
	spBackendNearest                  // Backend.Nearest
	spBackendPosition                 // Backend.PositionAt
	spBackendSeal                     // Backend.SealBefore
	spBackendOther                    // every other Backend method
	spPush                            // Compressor.Push
	spFSWrite                         // File.Write
	spFSSync                          // File.Sync
	spFSOther                         // every other FS / File call
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"client.append_rtt", "client.query_rtt",
	"backend.append", "backend.range_points", "backend.nearest", "backend.position_at", "backend.seal_before", "backend.other",
	"stream.push", "fs.write", "fs.sync", "fs.other",
}

// span is one timed call. Spans of one wire request share req; parent is the
// index of the span that caused this one, -1 when none was open (a client
// span, or an FS call made by a group commit that serves several requests).
type span struct {
	kind   spanKind
	sub    uint8 // client query spans: the queryKind
	warm   bool  // client query spans: run before measurement began
	parent int32
	req    uint64
	start  int64 // ns on the run clock
	end    int64
	n      int64 // points appended, points or neighbours returned, bytes written
}

// Request ids are built the same way on both sides of the wire, so client
// and server spans join without anything being sent: appends by object and
// per-object sequence, queries by their order on the one query connection.
func appendReq(obj int, seq uint32) uint64 { return uint64(obj+1)<<32 | uint64(seq) }
func queryReq(seq uint64) uint64           { return 1<<63 | seq }

type tracer struct {
	clk     clock
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64

	// armed gates the per-point spans (append, push, fs) and the request
	// counters: preload and the output checks are not traced.
	armed atomic.Bool

	// Per object, touched only by the one connection that owns the object.
	clientSeq  []uint32
	backendSeq []uint32
	open       []int32 // index of the Backend append span now open for the object

	querySeq atomic.Uint64 // Backend query calls, in order

	// firstSample finds the object a new compressor belongs to: Push is not
	// told, but its first sample is unique to one trip.
	firstSample map[trajectory.Sample]int32
}

func newTracer(clk clock, f fleet, capacity int) *tracer {
	t := &tracer{
		clk:         clk,
		spans:       make([]span, capacity),
		clientSeq:   make([]uint32, len(f.trips)),
		backendSeq:  make([]uint32, len(f.trips)),
		open:        make([]int32, len(f.trips)),
		firstSample: make(map[trajectory.Sample]int32, len(f.trips)),
	}
	for i, trip := range f.trips {
		t.open[i] = -1
		t.firstSample[trip[0]] = int32(i)
	}
	return t
}

// record stores one finished span and returns its index, -1 if the buffer
// is full.
func (t *tracer) record(s span) int32 {
	i := t.reserve()
	if i >= 0 {
		t.spans[i] = s
	}
	return i
}

// reserve claims a slot for a span whose children need its index before it
// ends.
func (t *tracer) reserve() int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

func (t *tracer) recorded() []span {
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

// appendSpan is the client-side hook of the append loops; nil when the
// tracer is.
func (t *tracer) appendSpan() spanFunc {
	if t == nil {
		return nil
	}
	return func(req request, start, end int64) {
		seq := t.clientSeq[req.obj]
		t.clientSeq[req.obj]++
		t.record(span{kind: spAppendRTT, parent: -1, req: appendReq(int(req.obj), seq), start: start, end: end, n: int64(req.points)})
	}
}

// querySpan is the client-side hook of the query loop.
func (t *tracer) querySpan() querySpanFunc {
	if t == nil {
		return nil
	}
	return func(seq int, q queryCase, warm bool, start, end int64, lines int) {
		t.record(span{kind: spQueryRTT, sub: uint8(q.kind), warm: warm, parent: -1, req: queryReq(uint64(seq)), start: start, end: end, n: int64(lines)})
	}
}

// tracedBackend decorates server.Backend.
type tracedBackend struct {
	inner server.Backend
	t     *tracer
}

func (b *tracedBackend) appendSpan(id string, points int, call func() error) error {
	obj := objectIndex(id)
	if !b.t.armed.Load() || obj < 0 || obj >= len(b.t.open) {
		return call()
	}
	idx := b.t.reserve()
	b.t.open[obj] = idx
	seq := b.t.backendSeq[obj]
	b.t.backendSeq[obj]++
	start := b.t.clk.now()
	err := call()
	end := b.t.clk.now()
	b.t.open[obj] = -1
	if idx >= 0 {
		b.t.spans[idx] = span{kind: spBackendAppend, parent: -1, req: appendReq(obj, seq), start: start, end: end, n: int64(points)}
	}
	return err
}

func (b *tracedBackend) Append(id string, s trajectory.Sample) error {
	return b.appendSpan(id, 1, func() error { return b.inner.Append(id, s) })
}

func (b *tracedBackend) AppendBatch(id string, ss []trajectory.Sample) (applied int, err error) {
	err = b.appendSpan(id, len(ss), func() error {
		applied, err = b.inner.AppendBatch(id, ss)
		return err
	})
	return applied, err
}

// timed records a span of the given kind around a non-append call.
func (b *tracedBackend) timed(kind spanKind, call func() int) {
	var req uint64
	if kind == spBackendRange || kind == spBackendNearest || kind == spBackendPosition {
		if !b.t.armed.Load() {
			call()
			return
		}
		req = queryReq(b.t.querySeq.Add(1) - 1)
	}
	start := b.t.clk.now()
	n := call()
	b.t.record(span{kind: kind, parent: -1, req: req, start: start, end: b.t.clk.now(), n: int64(n)})
}

func (b *tracedBackend) RangePoints(rect geo.Rect, t0, t1 float64) (out []store.RangePoint) {
	b.timed(spBackendRange, func() int { out = b.inner.RangePoints(rect, t0, t1); return len(out) })
	return out
}

func (b *tracedBackend) Nearest(q geo.Point, t float64, k int) (out []store.Neighbor) {
	b.timed(spBackendNearest, func() int { out = b.inner.Nearest(q, t, k); return len(out) })
	return out
}

func (b *tracedBackend) PositionAt(id string, t float64) (p geo.Point, ok bool) {
	b.timed(spBackendPosition, func() int { p, ok = b.inner.PositionAt(id, t); return 1 })
	return p, ok
}

func (b *tracedBackend) SealBefore(t float64) (n int, err error) {
	b.timed(spBackendSeal, func() int { n, err = b.inner.SealBefore(t); return n })
	return n, err
}

func (b *tracedBackend) Snapshot(id string) (tr trajectory.Trajectory, ok bool) {
	b.timed(spBackendOther, func() int { tr, ok = b.inner.Snapshot(id); return len(tr) })
	return tr, ok
}

func (b *tracedBackend) Query(rect geo.Rect, t0, t1 float64) (ids []string) {
	b.timed(spBackendOther, func() int { ids = b.inner.Query(rect, t0, t1); return len(ids) })
	return ids
}

func (b *tracedBackend) QueryWithTolerance(rect geo.Rect, t0, t1, eps float64) (ids []string) {
	b.timed(spBackendOther, func() int { ids = b.inner.QueryWithTolerance(rect, t0, t1, eps); return len(ids) })
	return ids
}

func (b *tracedBackend) EvictBefore(t float64) (n int) {
	b.timed(spBackendOther, func() int { n = b.inner.EvictBefore(t); return n })
	return n
}

func (b *tracedBackend) IDs() (ids []string) {
	b.timed(spBackendOther, func() int { ids = b.inner.IDs(); return len(ids) })
	return ids
}

func (b *tracedBackend) Stats() (st store.Stats) {
	b.timed(spBackendOther, func() int { st = b.inner.Stats(); return st.Objects })
	return st
}

// tracedCompressor decorates stream.Compressor. Its parent is the Backend
// append span open for its object.
type tracedCompressor struct {
	inner stream.Compressor
	t     *tracer
	obj   int32 // -1 until the first Push identifies it
}

func (t *tracer) wrapFactory(f func() stream.Compressor) func() stream.Compressor {
	if f == nil {
		return nil
	}
	return func() stream.Compressor { return &tracedCompressor{inner: f(), t: t, obj: -1} }
}

func (c *tracedCompressor) Push(s trajectory.Sample) ([]trajectory.Sample, error) {
	if c.obj < 0 {
		if obj, ok := c.t.firstSample[s]; ok {
			c.obj = obj
		}
	}
	if !c.t.armed.Load() {
		return c.inner.Push(s)
	}
	start := c.t.clk.now()
	out, err := c.inner.Push(s)
	end := c.t.clk.now()
	sp := span{kind: spPush, parent: -1, start: start, end: end, n: int64(len(out))}
	if c.obj >= 0 {
		if sp.parent = c.t.open[c.obj]; sp.parent >= 0 {
			// The parent's slot is filled when it ends; its request id is
			// the one the Backend wrapper just issued.
			sp.req = appendReq(int(c.obj), c.t.backendSeq[c.obj]-1)
		}
	}
	c.t.record(sp)
	return out, err
}

func (c *tracedCompressor) Flush() []trajectory.Sample { return c.inner.Flush() }

// BufferLen keeps the store's window-occupancy gauge working through the
// decorator.
func (c *tracedCompressor) BufferLen() int {
	if bl, ok := c.inner.(interface{ BufferLen() int }); ok {
		return bl.BufferLen()
	}
	return 0
}

// tracedFS decorates fault.FS and the files it opens.
type tracedFS struct {
	inner fault.FS
	t     *tracer
}

func (t *tracer) fsSpan(kind spanKind, call func() int64) {
	if !t.armed.Load() {
		call()
		return
	}
	start := t.clk.now()
	n := call()
	t.record(span{kind: kind, parent: -1, start: start, end: t.clk.now(), n: n})
}

func (fs *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (f fault.File, err error) {
	fs.t.fsSpan(spFSOther, func() int64 { f, err = fs.inner.OpenFile(name, flag, perm); return 0 })
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: f, t: fs.t}, nil
}

func (fs *tracedFS) Rename(oldpath, newpath string) (err error) {
	fs.t.fsSpan(spFSOther, func() int64 { err = fs.inner.Rename(oldpath, newpath); return 0 })
	return err
}

func (fs *tracedFS) Remove(name string) (err error) {
	fs.t.fsSpan(spFSOther, func() int64 { err = fs.inner.Remove(name); return 0 })
	return err
}

func (fs *tracedFS) Stat(name string) (fi os.FileInfo, err error) {
	fs.t.fsSpan(spFSOther, func() int64 { fi, err = fs.inner.Stat(name); return 0 })
	return fi, err
}

type tracedFile struct {
	inner fault.File
	t     *tracer
}

func (f *tracedFile) Write(p []byte) (n int, err error) {
	f.t.fsSpan(spFSWrite, func() int64 { n, err = f.inner.Write(p); return int64(n) })
	return n, err
}

func (f *tracedFile) Sync() (err error) {
	f.t.fsSpan(spFSSync, func() int64 { err = f.inner.Sync(); return 0 })
	return err
}

func (f *tracedFile) Read(p []byte) (n int, err error) {
	f.t.fsSpan(spFSOther, func() int64 { n, err = f.inner.Read(p); return int64(n) })
	return n, err
}

func (f *tracedFile) Close() (err error) {
	f.t.fsSpan(spFSOther, func() int64 { err = f.inner.Close(); return 0 })
	return err
}

func (f *tracedFile) Seek(offset int64, whence int) (pos int64, err error) {
	f.t.fsSpan(spFSOther, func() int64 { pos, err = f.inner.Seek(offset, whence); return 0 })
	return pos, err
}

func (f *tracedFile) Truncate(size int64) (err error) {
	f.t.fsSpan(spFSOther, func() int64 { err = f.inner.Truncate(size); return 0 })
	return err
}

func (f *tracedFile) Stat() (fi os.FileInfo, err error) {
	f.t.fsSpan(spFSOther, func() int64 { fi, err = f.inner.Stat(); return 0 })
	return fi, err
}

// writeSpans dumps every span as CSV: index, name, parent, request id,
// start and end in nanoseconds on the run clock, n, and the query kind for
// client query spans. README.md explains how to read it.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "index,name,parent,request,start_ns,end_ns,n,detail")
	for i, s := range t.recorded() {
		detail := ""
		if s.kind == spQueryRTT {
			detail = queryKindNames[s.sub]
			if s.warm {
				detail += " warm-up"
			}
		}
		fmt.Fprintf(w, "%d,%s,%d,%x,%d,%d,%d,%s\n", i, spanKindNames[s.kind], s.parent, s.req, s.start, s.end, s.n, detail)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

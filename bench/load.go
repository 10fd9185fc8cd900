package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the benchmark's time base: nanoseconds since the run started.
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }

// opResult is what a load loop measured.
type opResult struct {
	lat      []samples // per-command latency, ns: one series per connection, in send order
	points   int       // samples acknowledged
	commands int       // commands attempted
	failed   int       // commands that failed or were never sent after a failure
	busy     int64     // ns spent in round trips, summed over connections
	elapsed  time.Duration
	err      error // first failure, for the report
}

func (r *opResult) merge(o opResult) {
	r.lat = append(r.lat, o.lat...)
	r.points += o.points
	r.busy += o.busy
	r.commands += o.commands
	r.failed += o.failed
	if r.err == nil {
		r.err = o.err
	}
}

// wantReply is the exact acknowledgement of a request.
func wantReply(points, batch int) []byte {
	if batch == 1 {
		return []byte("OK")
	}
	return []byte("OK appended=" + strconv.Itoa(points))
}

// doAppend sends one APPEND/MAPPEND request and verifies its reply.
func doAppend(w *wireConn, req request, want []byte) error {
	if err := w.send(req.wire); err != nil {
		return err
	}
	line, err := w.readLine()
	if err != nil {
		return err
	}
	if !bytes.Equal(line, want) {
		return fmt.Errorf("object %d: %w", req.obj, &replyError{string(line)})
	}
	return nil
}

// spanFunc records one client-side round trip in a traced run; nil otherwise.
type spanFunc func(req request, start, end int64)

// closedLoop drives one connection per request list: each sends its next
// request as soon as the previous reply arrived. batch is the sample count
// of a full request (1 for single APPEND).
func closedLoop(clk clock, addr string, perConn [][]request, batch int, span spanFunc) opResult {
	results := make([]opResult, len(perConn))
	conns := make([]*wireConn, len(perConn))
	for i := range perConn {
		w, err := dialWire(addr)
		if err != nil {
			for _, c := range conns[:i] {
				c.close()
			}
			n := 0
			for _, reqs := range perConn {
				n += len(reqs)
			}
			return opResult{commands: n, failed: n, err: err}
		}
		conns[i] = w
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range perConn {
		wg.Add(1)
		go func(w *wireConn, reqs []request, res *opResult) {
			defer wg.Done()
			defer w.close()
			lat := make(samples, 0, len(reqs))
			defer func() { res.lat = []samples{lat} }()
			res.commands = len(reqs)
			full := wantReply(batch, batch)
			for k, req := range reqs {
				want := full
				if int(req.points) != batch {
					want = wantReply(int(req.points), batch)
				}
				t0 := clk.now()
				if err := doAppend(w, req, want); err != nil {
					res.err = err
					res.failed = len(reqs) - k
					return
				}
				t1 := clk.now()
				lat = append(lat, t1-t0)
				res.busy += t1 - t0
				res.points += int(req.points)
				if span != nil {
					span(req, t0, t1)
				}
			}
		}(conns[i], perConn[i], &results[i])
	}
	wg.Wait()
	var total opResult
	for _, r := range results {
		total.merge(r)
	}
	total.elapsed = time.Since(start)
	return total
}

// pacedResult is what an open-loop writer measured.
type pacedResult struct {
	opResult
	lateness samples // send time minus due time, ns: how late the generator itself ran
	sent     []int64 // clock time each request was written, for feed matching
	backlog  int     // requests already due but unsent when the last one went out
}

// paced is the open-loop writer: request i is due at start + i/rate whether
// or not earlier replies were quick, and its latency runs from that due time,
// so a stall is charged to every request it delays. One connection, one
// request in flight.
func paced(clk clock, addr string, reqs []request, rate float64, span spanFunc) pacedResult {
	res := pacedResult{opResult: opResult{commands: len(reqs)}}
	w, err := dialWire(addr)
	if err != nil {
		res.failed, res.err = len(reqs), err
		return res
	}
	defer w.close()
	lat := make(samples, 0, len(reqs))
	res.lateness = make(samples, 0, len(reqs))
	res.sent = make([]int64, 0, len(reqs))
	want := wantReply(1, 1)
	interval := float64(time.Second) / rate
	wall := time.Now()
	start := clk.now()
	for i, req := range reqs {
		due := start + int64(float64(i)*interval)
		pauseUntil(clk, due)
		t0 := clk.now()
		if err := doAppend(w, req, want); err != nil {
			res.err = err
			res.failed = len(reqs) - i
			break
		}
		t1 := clk.now()
		res.sent = append(res.sent, t0)
		res.lateness = append(res.lateness, t0-due)
		lat = append(lat, t1-due)
		res.busy += t1 - t0
		res.points++
		if span != nil {
			span(req, t0, t1)
		}
	}
	res.elapsed = time.Since(wall)
	res.lat = []samples{lat}
	if n := len(res.lateness); n > 0 {
		// The schedule's tail: how far behind the writer was when it ended.
		tail := res.lateness[n-max(1, n/100):]
		var sum int64
		for _, l := range tail {
			sum += l
		}
		res.backlog = int(float64(sum) / float64(len(tail)) / interval)
	}
	return res
}

// maxBacklogSeconds is how far behind its schedule an open-loop writer may
// end before the run is invalid: a growing backlog means the offered rate
// was not sustained and every latency in the run is a queue length.
const maxBacklogSeconds = 0.1

func (p pacedResult) sustained(rate float64) bool {
	return float64(p.backlog) <= rate*maxBacklogSeconds
}

// queryResult is what the query cycle measured.
type queryResult struct {
	lat      [numQueryKinds]samples
	lines    [numQueryKinds]int // reply lines per kind
	bytes    [numQueryKinds]int // reply bytes per kind
	busy     int64              // ns spent in measured round trips
	commands int
	failed   int
	err      error
	kept     []keptReply // replies saved for verification after the phase
}

// pointsPerRange is the mean number of points a range query returned.
func (q queryResult) pointsPerRange() float64 {
	n := len(q.lat[rangeHot]) + len(q.lat[rangeCold])
	if n == 0 {
		return 0
	}
	return float64(q.lines[rangeHot]+q.lines[rangeCold]) / float64(n)
}

type keptReply struct {
	q     queryCase
	reply []byte
}

// querySpanFunc records one client-side query round trip in a traced run.
type querySpanFunc func(seq int, q queryCase, warm bool, start, end int64, lines int)

// queryLoop is the closed-loop reader: it walks the seeded cycle, one query
// in flight, until stop is set, finishing the round of five kinds it is in.
// The first warm rounds are run but not measured. Every checkEvery-th range
// reply is copied aside and verified after the phase.
func queryLoop(clk clock, addr string, plan []queryCase, warm int, stop *atomic.Bool, span querySpanFunc) queryResult {
	var res queryResult
	w, err := dialWire(addr)
	if err != nil {
		res.commands, res.failed, res.err = 1, 1, err
		return res
	}
	defer w.close()
	var keep []byte
	collect := func(line []byte) {
		keep = append(keep, line...)
		keep = append(keep, '\n')
	}
	var ranges [numQueryKinds]int // per kind, so hot and cold replies are both verified
	for i := 0; ; i++ {
		if i%int(numQueryKinds) == 0 && stop.Load() {
			return res
		}
		q := plan[i%len(plan)]
		var fn func([]byte)
		if q.kind == rangeHot || q.kind == rangeCold {
			if ranges[q.kind]%checkEvery == 0 {
				keep = make([]byte, 0, 4096)
				fn = collect
			}
			ranges[q.kind]++
		}
		res.commands++
		t0 := clk.now()
		err := w.send(q.wire)
		var lines, size int
		if err == nil {
			if q.kind == position {
				err = w.expectOK()
			} else {
				lines, size, err = w.readList(fn)
			}
		}
		t1 := clk.now()
		if err != nil {
			res.failed++
			if res.err == nil {
				res.err = fmt.Errorf("%s: %w", queryKindNames[q.kind], err)
			}
			var re *replyError
			if !errors.As(err, &re) {
				return res // transport failure: the connection is lost
			}
			continue
		}
		warming := i < warm*int(numQueryKinds)
		if span != nil {
			span(i, q, warming, t0, t1, lines)
		}
		if warming {
			continue
		}
		res.busy += t1 - t0
		res.lat[q.kind] = append(res.lat[q.kind], t1-t0)
		res.lines[q.kind] += lines
		res.bytes[q.kind] += size
		if fn != nil {
			res.kept = append(res.kept, keptReply{q: q, reply: keep})
		}
	}
}

// feedResult is what the SUBSCRIBE reader saw.
type feedResult struct {
	arrived []int64 // clock time each POS line was read
	lines   [][]byte
	err     error
}

// feedReader subscribes to every object and records each relayed line with
// its arrival time until the connection is closed by stop().
type feedReader struct {
	w    *wireConn
	done chan struct{}
	n    atomic.Int64
	res  feedResult
}

func startFeedReader(clk clock, addr string, expect int) (*feedReader, error) {
	w, err := dialWire(addr)
	if err != nil {
		return nil, err
	}
	if err := w.send([]byte("SUBSCRIBE *\n")); err != nil {
		w.close()
		return nil, err
	}
	if err := w.expectOK(); err != nil {
		w.close()
		return nil, fmt.Errorf("SUBSCRIBE: %w", err)
	}
	fr := &feedReader{w: w, done: make(chan struct{})}
	fr.res.arrived = make([]int64, 0, expect)
	fr.res.lines = make([][]byte, 0, expect)
	arena := make([]byte, 0, expect*40)
	go func() {
		defer close(fr.done)
		for {
			line, err := w.readLine()
			if err != nil {
				fr.res.err = err
				return
			}
			start := len(arena)
			arena = append(arena, line...)
			fr.res.arrived = append(fr.res.arrived, clk.now())
			fr.res.lines = append(fr.res.lines, arena[start:len(arena):len(arena)])
			fr.n.Add(1)
		}
	}()
	return fr, nil
}

// received is the number of lines read so far.
func (fr *feedReader) received() int { return int(fr.n.Load()) }

// stop closes the feed and returns what was read. The reader's terminal
// error is the close itself and is not reported.
func (fr *feedReader) stop() feedResult {
	fr.w.close()
	select {
	case <-fr.done:
		return fr.res
	case <-time.After(exitTimeout):
		return feedResult{err: errors.New("feed reader did not stop")}
	}
}

// matchFeed pairs relayed POS lines with the APPENDs that caused them. The
// relay preserves order and can only drop, so one forward scan suffices.
// It returns delivery latencies (line read minus APPEND written) and the
// number of lines that matched nothing.
func matchFeed(reqs []request, sent []int64, feed feedResult) (lat samples, unmatched int) {
	lat = make(samples, 0, len(feed.lines))
	k := 0
	for i, line := range feed.lines {
		tail, ok := bytes.CutPrefix(line, []byte("POS "))
		if !ok {
			unmatched++
			continue
		}
		found := false
		for ; k < len(sent); k++ {
			// "APPEND <tail>\n"
			if w := reqs[k].wire; bytes.Equal(w[len("APPEND "):len(w)-1], tail) {
				found = true
				break
			}
		}
		if !found {
			unmatched += len(feed.lines) - i
			break
		}
		lat = append(lat, feed.arrived[i]-sent[k])
		k++
	}
	return lat, unmatched
}

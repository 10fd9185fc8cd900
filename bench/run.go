package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/stream"
)

// runConfig is one run of one workload.
type runConfig struct {
	w         *workload
	seed      int64
	seconds   float64
	smoke     bool
	quarter   bool      // the traced run replays the first quarter of the timed phase
	serverBin string    // trajserver binary for the end-to-end run
	tmpRoot   string    // where per-run temp dirs are made (inside the checkout)
	progress  io.Writer // phase lines for a human; never the result
}

// runResult is what one run reports.
type runResult struct {
	Values     map[string]float64 `json:"values"`               // metric → value
	Counts     map[string]int     `json:"counts,omitempty"`     // metric → samples behind it
	Ineligible []string           `json:"ineligible,omitempty"` // percentiles with fewer than 10 samples beyond them
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"` // first few failure messages
	Sizes      map[string]int     `json:"sizes"`
	Seconds    float64            `json:"wall_seconds"` // whole run, set-up and teardown included
}

func newRunResult() *runResult {
	return &runResult{Values: map[string]float64{}, Counts: map[string]int{}}
}

const maxFailureMessages = 8

// fail counts n failed operations.
func (r *runResult) fail(n int, err error) {
	if n <= 0 {
		return
	}
	r.Failed += n
	if err != nil && len(r.Failures) < maxFailureMessages {
		r.Failures = append(r.Failures, err.Error())
	}
}

// check counts one output check and its failure, if any.
func (r *runResult) check(err error) {
	r.Attempted++
	if err != nil {
		r.fail(1, err)
	}
}

// setPercentile stores the q-quantile of the phase's latency series (one per
// connection), in milliseconds, under name.
func (r *runResult) setPercentile(name string, q float64, series ...samples) {
	n := 0
	for _, s := range series {
		n += len(s)
	}
	if !eligible(n, q) {
		r.Ineligible = append(r.Ineligible, name)
	}
	r.Values[name] = quantile(series, q) / 1e6
	r.Counts[name] = n
}

// session is the state a run's phases share. The same phases drive the
// end-to-end child process and the traced in-process stack; only addr and
// the span hooks differ.
type session struct {
	cfg   runConfig
	sz    sizes
	clk   clock
	fleet fleet
	model *model
	res   *runResult

	addr string
	ctl  *server.Client

	setup time.Duration // time spent setting up

	mainReqs [][]request // the timed phase's commands, per connection, rendered in set-up

	plan   []queryCase
	stable []float64    // per object: newest sample time whose retention was final when the plan was made
	kept   []keptReply  // range replies awaiting verification
	trace  *tracer      // nil end to end
	feed   *feedOutcome // the feed phase's counts, checked against server drops

	// What the traced run needs to know about the phases: when they ran,
	// what they did, and the process and registry counters at their edges.
	snapshot func() edge // nil end to end
	main     phaseMark
	query    phaseMark
	queries  queryResult // the query phase's result
}

// edge is the state of the process's counters at a phase boundary.
type edge struct {
	mallocs, allocBytes uint64
	counters            map[string]float64
}

// phaseMark brackets one phase on the run clock.
type phaseMark struct {
	start, end int64
	before     edge
	after      edge
	points     int   // samples acknowledged in the phase
	busy       int64 // ns the phase's connections spent in round trips
}

func (s *session) begin(m *phaseMark) {
	if s.snapshot != nil {
		m.before = s.snapshot()
	}
	m.start = s.clk.now()
}

func (s *session) finish(m *phaseMark, points int, busy int64) {
	m.end = s.clk.now()
	m.points, m.busy = points, busy
	if s.snapshot != nil {
		m.after = s.snapshot()
	}
}

type feedOutcome struct {
	appended, delivered int
}

func (s *session) logf(format string, args ...any) {
	if s.cfg.progress != nil {
		fmt.Fprintf(s.cfg.progress, "  [%s %6.2fs] %s\n", s.cfg.w.Name, time.Since(s.clk.t0).Seconds(), fmt.Sprintf(format, args...))
	}
}

// newSession prepares a run: the fleet (generated unless reuse carries one
// from an earlier session of the same configuration), the model and the
// rendered commands.
func newSession(cfg runConfig, reuse *fleet) (*session, error) {
	s := &session{cfg: cfg, sz: cfg.w.sizes(cfg.seconds, cfg.smoke, cfg.quarter), clk: clock{time.Now()}, res: newRunResult()}
	newComp, err := stream.ParseFactory(cfg.w.compress)
	if err != nil {
		return nil, err
	}
	if reuse != nil {
		s.fleet = *reuse
	} else {
		// Two spare fixes per trip: gpsgen's duration is approximate.
		duration := float64(s.sz.perObject()+2) * sampleSeconds
		s.fleet = genFleet(cfg.seed, s.sz.objects, fleetSpread, duration)
	}
	for i, trip := range s.fleet.trips {
		if len(trip) < s.sz.perObject() {
			return nil, fmt.Errorf("object %d: trip has %d samples, run needs %d", i, len(trip), s.sz.perObject())
		}
	}
	s.model = newModel(s.fleet, newComp, cfg.w.maxSED)
	// Commands are rendered here, in set-up, so the timed loops only write.
	if cfg.w.closedLoop() {
		s.mainReqs = s.fleet.requests(s.sz.main[0], s.sz.main[1], cfg.w.batch, loadConns)
	} else {
		s.mainReqs = s.fleet.requests(s.sz.main[0], s.sz.main[1], 1, 1)
	}
	s.res.Sizes = map[string]int{
		"objects":             s.sz.objects,
		"preload_points":      s.sz.points(s.sz.pre),
		"main_points":         s.sz.points(s.sz.main),
		"query_warm_cycles":   s.sz.warmCycles,
		"query_plan_cases":    s.sz.planCases,
		"sampled_snapshots":   s.sz.sampled,
		"restarts":            s.sz.restarts,
		"main_batch":          cfg.w.batch,
		"main_rate_per_s":     int(cfg.w.rate),
		"preload_batch":       preloadBatch,
		"load_connections":    loadConns,
		"nearest_k":           nearestK,
		"query_window_metres": int(queryEdge),
		"query_window_s":      int(2 * queryHalfWin),
	}
	s.setup = time.Since(s.clk.t0)
	s.logf("fleet: %d objects x %d samples", s.sz.objects, s.sz.perObject())
	return s, nil
}

// connect points the session at a server.
func (s *session) connect(addr string) error {
	ctl, err := server.DialOptions(addr, server.ClientOptions{
		IOTimeout:  60 * time.Second,
		MaxRetries: -1, // a retry would hide a server restart from the run
		Metrics:    metrics.NewRegistry(),
	})
	if err != nil {
		return err
	}
	if s.ctl != nil {
		_ = s.ctl.Close() // the old server is gone
	}
	s.addr, s.ctl = addr, ctl
	return ctl.Ping()
}

// control returns the control-plane client, re-armed. The server sets a
// connection's write deadline only when it flushes a reply, so a reply
// larger than its 4 KiB buffer (STATS, SNAPSHOT, METRICS) on a connection
// idle for longer than its 30 s write timeout spills into a stale deadline
// and the server drops the connection. A PING fits the buffer and renews the
// deadline.
func (s *session) control() (*server.Client, error) {
	if err := s.ctl.Ping(); err != nil {
		return nil, fmt.Errorf("control connection: %w", err)
	}
	return s.ctl, nil
}

// serverArgs are the trajserver flags of the workload; walPath is "" without
// a WAL.
func (w *workload) serverArgs(walPath string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-compress", w.compress}
	if walPath != "" {
		args = append(args, "-wal", walPath, "-wal-sync", "0")
	}
	if w.sealEps > 0 {
		args = append(args, "-seal-eps", strconv.FormatFloat(w.sealEps, 'g', -1, 64), "-seal-block", strconv.Itoa(w.sealBlock))
	}
	return args
}

// preload ingests one range of every object's samples in large batches and
// brings the model level. Untimed, but part of set-up.
func (s *session) preload(r sampleRange) error {
	if r[1] == r[0] {
		return nil
	}
	t0 := time.Now()
	reqs := s.fleet.requests(r[0], r[1], preloadBatch, loadConns)
	res := closedLoop(s.clk, s.addr, reqs, preloadBatch, nil)
	if res.failed > 0 {
		return fmt.Errorf("preload: %d of %d commands failed: %w", res.failed, res.commands, res.err)
	}
	if err := s.model.advance(r[1]); err != nil {
		return err
	}
	s.setup += time.Since(t0)
	s.logf("preloaded %d points in %.2fs", res.points, res.elapsed.Seconds())
	return nil
}

// seal moves the older half of the preloaded history into the cold tier.
func (s *session) seal() error {
	if s.cfg.w.sealEps <= 0 {
		return nil
	}
	start := time.Now()
	t0, t1 := s.fleet.span(s.sz.pre[1])
	cut := math.Round((t0 + t1) / 2)
	n, err := s.ctl.Seal(cut)
	if err != nil {
		return fmt.Errorf("SEAL: %w", err)
	}
	s.model.sealCut, s.model.sealEps = cut, s.cfg.w.sealEps
	s.setup += time.Since(start)
	s.logf("sealed %d samples before t=%g", n, cut)
	return nil
}

// makePlan builds the query cycle over the preloaded samples: "cold" windows
// lie in the sealed half, "hot" ones after the seal cut.
func (s *session) makePlan() error {
	if s.model.sealEps <= 0 {
		return fmt.Errorf("workload %s: the query cycle needs a cold tier", s.cfg.w.Name)
	}
	start := time.Now()
	s.stable = make([]float64, len(s.model.objs))
	posFrom := make([]float64, len(s.model.objs))
	for i := range s.model.objs {
		s.stable[i] = math.Inf(-1)
		if ret := s.model.objs[i].retained; len(ret) > 0 {
			s.stable[i] = ret[len(ret)-1].T
		}
		posFrom[i] = s.model.positionFrom(i)
	}
	s.plan = s.fleet.queryPlan(s.cfg.seed, s.sz.pre[1], s.model.sealCut, s.sz.planCases, posFrom)
	s.setup += time.Since(start)
	return nil
}

// noteAppends folds an append phase into the result.
func (s *session) noteAppends(r opResult) {
	s.res.Attempted += r.commands
	s.res.fail(r.failed, r.err)
}

// appendMetrics derives the ingest metrics from the timed writer(s).
func (s *session) appendMetrics(r opResult) {
	s.res.Values["ingest_points_per_s"] = float64(r.points) / r.elapsed.Seconds()
	s.res.Counts["ingest_points_per_s"] = r.points
	s.res.setPercentile("append_p50_ms", 0.50, r.lat...)
	s.res.setPercentile("append_p90_ms", 0.90, r.lat...)
}

// noteQueries folds a query phase into the result and the metrics.
func (s *session) noteQueries(q queryResult) {
	s.res.Attempted += q.commands
	s.res.fail(q.failed, q.err)
	s.kept = append(s.kept, q.kept...)
	s.queries = q
	s.res.setPercentile("range_hot_p50_ms", 0.50, q.lat[rangeHot])
	s.res.setPercentile("range_hot_p95_ms", 0.95, q.lat[rangeHot])
	s.res.setPercentile("range_cold_p50_ms", 0.50, q.lat[rangeCold])
	s.res.setPercentile("range_cold_p95_ms", 0.95, q.lat[rangeCold])
	s.res.setPercentile("nearest_hot_p50_ms", 0.50, q.lat[nearestHot])
	s.res.setPercentile("nearest_cold_p50_ms", 0.50, q.lat[nearestCold])
}

// notePaced validates the open-loop writer: a backlog that grew invalidates
// every request in it.
func (s *session) notePaced(p pacedResult, rate float64) {
	s.noteAppends(p.opResult)
	if !p.sustained(rate) {
		s.res.fail(p.commands-p.failed, fmt.Errorf("open-loop writer ended %d requests behind its %g/s schedule: the rate was not sustained", p.backlog, rate))
	}
	s.res.Values["gen.lateness_p99_ms"] = quantileSorted(p.lateness.sorted(), 0.99) / 1e6
	s.res.Values["gen.backlog_at_end"] = float64(p.backlog)
}

// feedPhase runs a paced writer with a SUBSCRIBE * reader beside it and
// returns the writer's result and the delivery latencies.
func (s *session) feedPhase(reqs []request, rate float64) (pacedResult, samples, error) {
	fr, err := startFeedReader(s.clk, s.addr, len(reqs))
	if err != nil {
		return pacedResult{}, nil, fmt.Errorf("feed reader: %w", err)
	}
	p := paced(s.clk, s.addr, reqs, rate, s.trace.appendSpan())
	// Every appended point is either relayed or counted as dropped by the
	// server; wait for the relay to drain, bounded.
	deadline := time.Now().Add(5 * time.Second)
	for fr.received() < p.points && time.Now().Before(deadline) {
		if drops, err := s.serverDrops(); err == nil && fr.received()+drops >= p.points {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	feed := fr.stop()
	lat, unmatched := matchFeed(reqs, p.sent, feed)
	s.res.Attempted += len(reqs) // one expected line per append
	s.res.fail(unmatched, errors.New("feed line matches no APPEND"))
	// A line the server dropped is a failed delivery, however honestly the
	// server counted it: the latencies above are those of the survivors.
	if dropped := p.points - len(feed.lines); dropped > 0 {
		s.res.fail(dropped, fmt.Errorf("feed: %d of %d appended points were never relayed", dropped, p.points))
	}
	s.feed = &feedOutcome{appended: p.points, delivered: len(feed.lines)}
	s.notePaced(p, rate)
	s.res.setPercentile("feed_delivery_p50_ms", 0.50, lat)
	s.res.setPercentile("feed_delivery_p90_ms", 0.90, lat)
	return p, lat, nil
}

// serverDrops reads the server's own count of feed lines it dropped.
func (s *session) serverDrops() (int, error) {
	ctl, err := s.control()
	if err != nil {
		return 0, err
	}
	text, err := ctl.Metrics()
	if err != nil {
		return 0, err
	}
	return int(promValue(text, "server_subscribe_drops_total")), nil
}

// promValue sums the samples of one metric family in a Prometheus text
// exposition (all label sets).
func promValue(text, name string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(rest)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// mainPhase is the workload's timed load.
func (s *session) mainPhase() error {
	w := s.cfg.w
	s.begin(&s.main)
	switch {
	case w.closedLoop():
		r := closedLoop(s.clk, s.addr, s.mainReqs, w.batch, s.trace.appendSpan())
		s.finish(&s.main, r.points, r.busy)
		s.noteAppends(r)
		s.appendMetrics(r)
		s.logf("main: %d points in %.2fs closed loop", r.points, r.elapsed.Seconds())

	case w.mainQueries:
		var stop atomic.Bool
		done := make(chan queryResult, 1)
		s.begin(&s.query)
		go func() { done <- queryLoop(s.clk, s.addr, s.plan, s.sz.warmCycles, &stop, s.trace.querySpan()) }()
		p := paced(s.clk, s.addr, s.mainReqs[0], w.rate, s.trace.appendSpan())
		stop.Store(true)
		q := <-done
		s.finish(&s.main, p.points, p.busy)
		s.finish(&s.query, 0, q.busy)
		s.notePaced(p, w.rate)
		s.appendMetrics(p.opResult)
		s.noteQueries(q)
		s.logf("main: %d points paced in %.2fs beside %d queries, %.0f points per range reply", p.points, p.elapsed.Seconds(), q.commands, q.pointsPerRange())

	case w.mainFeed:
		p, lat, err := s.feedPhase(s.mainReqs[0], w.rate)
		if err != nil {
			return err
		}
		s.finish(&s.main, p.points, p.busy)
		s.appendMetrics(p.opResult)
		s.logf("main: %d points paced in %.2fs, %d feed lines matched", p.points, p.elapsed.Seconds(), len(lat))

	default:
		return fmt.Errorf("workload %s: no timed phase defined", w.Name)
	}
	return s.model.advance(s.sz.main[1])
}

// arm switches the traced run's per-point spans on and off; a no-op end to
// end.
func (s *session) arm(on bool) {
	if s.trace != nil {
		s.trace.armed.Store(on)
	}
}

// beforeMain brings the server to the state the timed phase starts from.
func (s *session) beforeMain() error {
	if err := s.preload(s.sz.pre); err != nil {
		return err
	}
	if err := s.seal(); err != nil {
		return err
	}
	if s.cfg.w.mainQueries {
		return s.makePlan()
	}
	return nil
}

// timed runs the timed phase, with the traced run's per-point spans on.
func (s *session) timed() error {
	s.arm(true)
	defer s.arm(false)
	return s.mainPhase()
}

// sampledObjects is the seeded choice of objects whose SNAPSHOT is verified.
func (s *session) sampledObjects() []int {
	rng := rand.New(rand.NewSource(s.cfg.seed ^ 0x5a4d))
	return rng.Perm(s.sz.objects)[:min(s.sz.sampled, s.sz.objects)]
}

// verify checks what the server holds against the model: the acknowledged
// point count, sampled snapshots, the range replies kept by the query loops
// and, where a subscriber ran, the feed accounting.
func (s *session) verify() (server.Stats, error) {
	ctl, err := s.control()
	if err != nil {
		return server.Stats{}, err
	}
	st, err := ctl.Stats()
	if err != nil {
		return st, fmt.Errorf("STATS: %w", err)
	}
	var statErr error
	if want := s.model.raw(); st.RawPoints != want {
		statErr = fmt.Errorf("STATS raw=%d, %d points were acknowledged", st.RawPoints, want)
	}
	s.res.check(statErr)

	for _, i := range s.sampledObjects() {
		got, err := ctl.Snapshot(s.fleet.ids[i])
		if err == nil {
			err = s.model.checkSnapshot(i, got)
		}
		s.res.check(err)
	}
	for _, k := range s.kept {
		s.res.check(s.model.checkRange(k.q, k.reply, s.stable))
	}
	s.kept = nil

	if s.feed != nil {
		drops, err := s.serverDrops()
		if err != nil {
			return st, err
		}
		var feedErr error
		if s.feed.delivered+drops != s.feed.appended {
			feedErr = fmt.Errorf("feed: %d lines delivered + %d dropped by the server != %d points appended", s.feed.delivered, drops, s.feed.appended)
		}
		s.res.check(feedErr)
	}
	return st, nil
}

// recoveredChecks verifies, after a SIGKILL and restart on the WAL, that
// every object holds exactly its acknowledged samples: the right count, and
// the last acknowledged sample at the end.
func (s *session) recoveredChecks() error {
	ctl, err := s.control()
	if err != nil {
		return err
	}
	st, err := ctl.Stats()
	if err != nil {
		return fmt.Errorf("STATS after recovery: %w", err)
	}
	for i := range s.model.objs {
		o := &s.model.objs[i]
		var cerr error
		last := s.fleet.trips[i][o.n-1]
		if got := st.PointsPerObject[s.fleet.ids[i]]; got != len(o.retained) {
			cerr = fmt.Errorf("object %s recovered %d samples, %d were acknowledged", s.fleet.ids[i], got, len(o.retained))
		} else if pos, err := ctl.PositionAt(s.fleet.ids[i], last.T); err != nil {
			cerr = fmt.Errorf("object %s: last acknowledged sample t=%g not recovered: %w", s.fleet.ids[i], last.T, err)
		} else if pos.Dist(last.Pos()) > 1e-6 { // POSITION interpolates, so the last bits may differ
			cerr = fmt.Errorf("object %s: recovered %v at t=%g, acknowledged %v", s.fleet.ids[i], pos, last.T, last.Pos())
		}
		s.res.check(cerr)
	}
	for _, i := range s.sampledObjects() {
		got, err := ctl.Snapshot(s.fleet.ids[i])
		if err == nil {
			err = s.model.checkSnapshot(i, got)
		}
		s.res.check(err)
	}
	return nil
}

// rawSampleBytes is the in-memory size of one retained hot sample (t, x, y).
const rawSampleBytes = 24

// runEndToEnd returns every end-to-end metric for one workload: its own from
// its run, and those its run does not produce — the query metrics where no
// queries run, the feed metrics where nothing subscribes — borrowed from a
// shorter run of the workload that does produce them. The driver wants every
// metric from every workload; only the workload's own cells say anything
// about it (workload.native).
func runEndToEnd(cfg runConfig) (*runResult, error) {
	wall := time.Now()
	res, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	for i := range workloads {
		lender := &workloads[i]
		var missing []string
		for _, d := range endToEnd {
			if _, have := res.Values[d.Name]; !have && lender.native(d.Name) {
				missing = append(missing, d.Name)
			}
		}
		if len(missing) == 0 {
			continue
		}
		lcfg := cfg
		lcfg.w, lcfg.seconds = lender, cfg.seconds*lenderShare
		lent, err := runWorkload(lcfg)
		if err != nil {
			return nil, fmt.Errorf("borrowing from %s: %w", lender.Name, err)
		}
		for _, name := range missing {
			res.Values[name], res.Counts[name] = lent.Values[name], lent.Counts[name]
		}
		res.Ineligible = append(res.Ineligible, lent.Ineligible...)
		res.Attempted += lent.Attempted
		res.fail(lent.Failed, nil)
		res.Failures = append(res.Failures, lent.Failures...)
	}
	res.Seconds = time.Since(wall).Seconds()
	return res, nil
}

// runWorkload runs one workload against a real trajserver child process with
// tracing off and returns the end-to-end metrics that run produces.
func runWorkload(cfg runConfig) (res *runResult, err error) {
	dir, err := os.MkdirTemp(cfg.tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) // temp dir and WAL go on every exit path

	walPath := ""
	if cfg.w.wal {
		walPath = filepath.Join(dir, "bench.wal")
	}
	args := cfg.w.serverArgs(walPath)

	// Set-up: fleet and commands, child; beforeMain adds preload, seal, plan.
	s, err := newSession(cfg, nil)
	if err != nil {
		return nil, err
	}
	spawned := time.Now()
	srv, err := startChild(cfg.serverBin, args...)
	if err != nil {
		return nil, err
	}
	defer func() {
		// No process outlives the run, whatever happened above.
		srv.kill()
		if s.ctl != nil {
			_ = s.ctl.Close() // the server is gone; nothing to flush
		}
		if err != nil {
			err = fmt.Errorf("%w\nserver log tail:\n%s", err, srv.logTail())
		}
	}()
	if err := s.connect(srv.addr); err != nil {
		return nil, err
	}
	s.setup += time.Since(spawned)
	if err := s.beforeMain(); err != nil {
		return nil, err
	}
	s.res.Values["setup_s"] = s.setup.Seconds()

	if err := s.timed(); err != nil {
		return nil, err
	}
	if err := srv.check(); err != nil {
		return nil, err
	}
	st, err := s.verify()
	if err != nil {
		return nil, err
	}
	switch {
	case walPath != "": // measured from the log file after the first SIGKILL
	case st.SealedPoints > 0:
		s.res.Values["stored_bytes_per_point"] = float64(st.SealedBytes) / float64(st.SealedPoints)
	default:
		s.res.Values["stored_bytes_per_point"] = rawSampleBytes * float64(st.RetainedPoints) / float64(st.RawPoints)
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	s.res.Values["server_rss_mb"] = rss

	// The planned SIGKILL rounds: time from spawn to the first PING OK.
	rounds := s.sz.restarts
	if walPath == "" {
		rounds *= coldStartFactor
	}
	var recovery []float64
	for r := 0; r < rounds; r++ {
		srv.kill()
		if r == 0 && walPath != "" {
			fi, err := os.Stat(walPath)
			if err != nil {
				return nil, err
			}
			s.res.Values["stored_bytes_per_point"] = float64(fi.Size()) / float64(s.model.raw())
		}
		t0 := time.Now()
		next, err := startChild(cfg.serverBin, args...)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", r+1, err)
		}
		srv = next
		if err := s.connect(srv.addr); err != nil {
			return nil, fmt.Errorf("restart %d: %w", r+1, err)
		}
		recovery = append(recovery, time.Since(t0).Seconds())
	}
	s.res.Values["recovery_s"] = medianFloat(recovery)
	s.res.Counts["recovery_s"] = len(recovery)
	s.logf("recovery: %.4fs median of %d", s.res.Values["recovery_s"], len(recovery))
	if walPath != "" {
		if err := s.recoveredChecks(); err != nil {
			return nil, err
		}
	}

	// A graceful drain must still work and exit 0.
	s.res.check(srv.stop())
	return s.res, nil
}

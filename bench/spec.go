package main

import (
	"fmt"
	"math"
	"strings"
)

// metricDef names one metric of the benchmark. BENCHMARK.json carries the
// same tables; spec_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd are the metrics a user of the server would see, measured with
// tracing off against a real trajserver child process. Every workload
// reports every one of them, from its own run or borrowed from another's
// (README.md has the table).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_points_per_s", "points/s", "higher", 0.25},
	{"append_p50_ms", "ms", "lower", 0.25},
	{"append_p90_ms", "ms", "lower", 0.25},
	{"range_hot_p50_ms", "ms", "lower", 0.25},
	{"range_hot_p95_ms", "ms", "lower", 0.25},
	{"range_cold_p50_ms", "ms", "lower", 0.25},
	{"range_cold_p95_ms", "ms", "lower", 0.25},
	{"nearest_hot_p50_ms", "ms", "lower", 0.25},
	{"nearest_cold_p50_ms", "ms", "lower", 0.25},
	{"feed_delivery_p50_ms", "ms", "lower", 0.25},
	{"feed_delivery_p90_ms", "ms", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.25},
	{"stored_bytes_per_point", "bytes", "lower", 0.05},
	{"server_rss_mb", "MiB", "lower", 0.25},
}

// perLayerDefs are the metrics of single layers, printed by the traced run.
// They have no bound: they say where an end-to-end change came from.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{Name: "server.rtt_ns_per_point", Unit: "ns", Better: "lower"},
		{Name: "server.self_ns_per_point", Unit: "ns", Better: "lower"},
		{Name: "server.self_us_per_query", Unit: "us", Better: "lower"},
		{Name: "server.response_bytes_per_query", Unit: "bytes", Better: "lower"},
		{Name: "stack.allocs_per_point", Unit: "count", Better: "lower"},
		{Name: "stack.alloc_bytes_per_point", Unit: "bytes", Better: "lower"},
		{Name: "stream.push_ns_per_point", Unit: "ns", Better: "lower"},
		{Name: "stream.points_in", Unit: "count", Better: "higher"},
		{Name: "stream.points_out", Unit: "count", Better: "lower"},
		{Name: "stream.compression_pct", Unit: "%", Better: "higher"},
	}
	for _, spec := range streamSpecs {
		sfx := "." + specSuffix(spec)
		defs = append(defs,
			metricDef{Name: "stream.push_ns_per_point" + sfx, Unit: "ns", Better: "lower"},
			metricDef{Name: "stream.allocs_per_point" + sfx, Unit: "count", Better: "lower"},
			metricDef{Name: "stream.compression_pct" + sfx, Unit: "%", Better: "higher"},
			metricDef{Name: "stream.max_sed_m" + sfx, Unit: "m", Better: "lower"},
		)
	}
	return append(defs,
		metricDef{Name: "store.append_self_ns_per_point", Unit: "ns", Better: "lower"},
		metricDef{Name: "store.append_ns_per_point.direct", Unit: "ns", Better: "lower"},
		metricDef{Name: "store.allocs_per_point.direct", Unit: "count", Better: "lower"},
		metricDef{Name: "store.heap_bytes_per_retained_point", Unit: "bytes", Better: "lower"},
		metricDef{Name: "store.range_hot_us_per_query", Unit: "us", Better: "lower"},
		metricDef{Name: "store.nearest_hot_us_per_query", Unit: "us", Better: "lower"},
		metricDef{Name: "store.position_us_per_query", Unit: "us", Better: "lower"},
		metricDef{Name: "store.points_returned_per_range_query", Unit: "count", Better: "lower"},
		metricDef{Name: "store.query_ids_us_per_query.grid", Unit: "us", Better: "lower"},
		metricDef{Name: "store.query_ids_us_per_query.rtree", Unit: "us", Better: "lower"},
		metricDef{Name: "store.append_ns_per_point.grid", Unit: "ns", Better: "lower"},
		metricDef{Name: "store.append_ns_per_point.rtree", Unit: "ns", Better: "lower"},
		metricDef{Name: "rtree.insert_ns_per_box", Unit: "ns", Better: "lower"},
		metricDef{Name: "rtree.search_us_per_query", Unit: "us", Better: "lower"},
		metricDef{Name: "seal.range_cold_us_per_query", Unit: "us", Better: "lower"},
		metricDef{Name: "seal.nearest_cold_us_per_query", Unit: "us", Better: "lower"},
		metricDef{Name: "seal.blocks_decoded_per_query", Unit: "count", Better: "lower"},
		metricDef{Name: "seal.blocks_pruned_per_query", Unit: "count", Better: "higher"},
		metricDef{Name: "seal.prune_share", Unit: "share", Better: "higher"},
		metricDef{Name: "seal.seal_ns_per_point", Unit: "ns", Better: "lower"},
		metricDef{Name: "seal.bytes_per_point", Unit: "bytes", Better: "lower"},
		metricDef{Name: "seal.footprint_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "seal.tier_seal_ns_per_point.direct", Unit: "ns", Better: "lower"},
		metricDef{Name: "seal.tier_range_us_per_query.direct", Unit: "us", Better: "lower"},
		metricDef{Name: "wal.append_span_ns_per_point", Unit: "ns", Better: "lower"},
		metricDef{Name: "wal.self_ns_per_point", Unit: "ns", Better: "lower"},
		metricDef{Name: "wal.fs_write_ns_per_point", Unit: "ns", Better: "lower"},
		metricDef{Name: "wal.fs_sync_ns_per_point", Unit: "ns", Better: "lower"},
		metricDef{Name: "wal.fsyncs_per_1k_points", Unit: "count", Better: "lower"},
		metricDef{Name: "wal.records_per_fsync", Unit: "count", Better: "higher"},
		metricDef{Name: "wal.bytes_per_point", Unit: "bytes", Better: "lower"},
		metricDef{Name: "wal.replay_ns_per_record", Unit: "ns", Better: "lower"},
		metricDef{Name: "bus.publish_ns_per_point.subs0", Unit: "ns", Better: "lower"},
		metricDef{Name: "bus.publish_ns_per_point.subs1", Unit: "ns", Better: "lower"},
		metricDef{Name: "bus.publish_ns_per_point.subs128", Unit: "ns", Better: "lower"},
		metricDef{Name: "bus.publish_ns_per_point.subs128-box", Unit: "ns", Better: "lower"},
		metricDef{Name: "bus.publish_ns_per_point.subs1-opwtr-30", Unit: "ns", Better: "lower"},
		metricDef{Name: "bus.dropped_share.subs128", Unit: "share", Better: "lower"},
		metricDef{Name: "bus.drain_lines_per_call", Unit: "count", Better: "higher"},
		metricDef{Name: "bus.posline_ns_per_line", Unit: "ns", Better: "lower"},
		metricDef{Name: "codec.encode_ns_per_point", Unit: "ns", Better: "lower"},
		metricDef{Name: "codec.bytes_per_point", Unit: "bytes", Better: "lower"},
		metricDef{Name: "gen.lateness_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "gen.backlog_at_end", Unit: "count", Better: "lower"},
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "trace.spans", Unit: "count", Better: "lower"},
	)
}

// workload is one of the four wire-level traffic mixes. Sizes are per second
// of requested run length, so a run is a fixed amount of work for a given
// -seconds and its counts repeat exactly.
type workload struct {
	Name string
	Why  string

	compress  string  // trajserver -compress
	maxSED    float64 // the spec's error bound in metres
	wal       bool    // -wal <tmp> -wal-sync 0
	sealEps   float64 // -seal-eps, 0 = no cold tier
	sealBlock int     // -seal-block

	objects     int     // fleet size
	prePerSec   float64 // samples per object preloaded in set-up, per second of run
	mainPerSec  float64 // samples per object sent in the timed phase, per second of run
	batch       int     // MAPPEND size of the timed phase; 1 = single APPEND
	rate        float64 // open-loop points/s of the timed writer; 0 = closed loop on two connections
	mainQueries bool    // the timed phase runs the query cycle beside the writer
	mainFeed    bool    // the timed phase runs a SUBSCRIBE * reader beside the writer
}

var workloads = []workload{
	{
		Name: "ingest_batch",
		Why:  "Closed loop, 2 connections, MAPPEND x64 into an in-memory opwtr:30 store: wire parse, dispatch and store append do the work; WAL, seal and bus do none.",

		compress: "opwtr:30", maxSED: 30,
		objects: 2000, mainPerSec: 350, batch: 64,
	},
	{
		Name: "ingest_durable",
		Why:  "Closed loop, 2 connections, single APPEND with -wal-sync 0 on a preloaded log, then SIGKILL and replay: every OK waits for a covering fsync, so the WAL dominates.",

		compress: "none", wal: true,
		objects: 1000, prePerSec: 200, mainPerSec: 6, batch: 1,
	},
	{
		Name: "query_live",
		Why:  "Open-loop 1000 points/s writer beside a closed-loop cycle of range, nearest and position queries over a half-sealed store: hot scan, block decode and rtree, with reads taxing writes.",

		compress: "opwtr:30", maxSED: 30, sealEps: 10, sealBlock: 512,
		objects: 250, prePerSec: 60, mainPerSec: 4, batch: 1, rate: 1000, mainQueries: true,
	},
	{
		Name: "feed_live",
		Why:  "Open-loop 10000 points/s single-APPEND writer with a SUBSCRIBE * raw relay matched line by line: bus publish, ring, drain and feed write sit on the per-point ingest path.",

		compress: "opwtr:30", maxSED: 30,
		objects: 1000, mainPerSec: 10, batch: 1, rate: 10000, mainFeed: true,
	},
}

// closedLoop reports whether the timed phase is a closed loop on two
// connections (no pace is set) rather than one open-loop writer.
func (w *workload) closedLoop() bool { return w.rate <= 0 }

// native reports whether the workload's own timed phase (or, for recovery_s
// and stored_bytes_per_point, its own server configuration) produces the
// end-to-end metric. The other cells are borrowed: the driver wants every
// metric from every workload, but a claim may rest only on a native cell,
// and -compare gates only those.
func (w *workload) native(metric string) bool {
	switch {
	case strings.HasPrefix(metric, "range_"), strings.HasPrefix(metric, "nearest_"):
		return w.mainQueries
	case strings.HasPrefix(metric, "feed_delivery_"):
		return w.mainFeed
	case metric == "recovery_s":
		return w.wal
	case metric == "stored_bytes_per_point":
		return w.wal || w.sealEps > 0
	}
	return true
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Fixed shapes shared by all workloads.
const (
	loadConns     = 2       // at most two load connections per phase
	preloadBatch  = 512     // MAPPEND size of the untimed preload
	fleetSpread   = 20000.0 // metres, edge of the depot area
	sampleSeconds = 10.0    // gpsgen's default fix interval

	planCases       = 256 // distinct query cases per kind in the seeded cycle
	warmCycles      = 32  // query cycles run first and discarded: caches fill, the heap settles after the preload and SEAL
	checkEvery      = 50  // every 50th range query's reply is verified
	sampledObjects  = 16  // objects whose SNAPSHOT is verified
	restarts        = 3   // SIGKILL/restart rounds on a WAL; recovery_s is their median
	coldStartFactor = 15  // without a WAL a restart is a few ms: more rounds, same median rule
)

// lenderShare is the share of the run length at which a lender runs: a
// workload whose own phase has no queries borrows the query metrics from a
// query_live run of that length, and one without a subscriber borrows the
// feed metrics from a feed_live run (README.md, "Borrowed cells").
const lenderShare = 0.5

// smokeSeconds is the run length -smoke sizes its tiny workloads for.
const smokeSeconds = 0.5

// sampleRange is a half-open range of sample indexes, the same for every object.
type sampleRange = [2]int

// sizes are a workload's concrete counts for one run, and where in each trip
// the phases' samples lie: the preload first, then the timed phase.
type sizes struct {
	objects    int
	pre        sampleRange // bulk preload
	main       sampleRange // the timed phase
	warmCycles int
	planCases  int
	sampled    int
	restarts   int
}

func (w *workload) sizes(seconds float64, smoke, quarter bool) sizes {
	sz := sizes{
		objects:    w.objects,
		warmCycles: warmCycles,
		planCases:  planCases,
		sampled:    sampledObjects,
		restarts:   restarts,
	}
	pre := int(math.Round(w.prePerSec * seconds))
	main := max(1, int(math.Round(w.mainPerSec*seconds)))
	if smoke {
		sz.objects = 48
		sz.warmCycles = 1
		sz.planCases = 8
		sz.sampled = 4
		sz.restarts = 1
	}
	if quarter {
		// The traced run replays the first quarter of the timed phase, over
		// the full preload.
		main = max(1, main/4)
		sz.warmCycles = max(1, sz.warmCycles/4)
	}
	if w.batch > 1 {
		// Whole batches only, so every MAPPEND carries the same count.
		main = max(w.batch, main/w.batch*w.batch)
	}
	if w.mainQueries {
		// Both tiers need data: enough that the compressor has released
		// samples of every object on either side of the seal cut.
		pre = max(pre, 32)
	}
	sz.pre = sampleRange{0, pre}
	sz.main = sampleRange{pre, pre + main}
	return sz
}

// perObject is the trip length in samples a run needs.
func (sz sizes) perObject() int { return sz.main[1] }

// points is the number of samples a range holds over the fleet.
func (sz sizes) points(r sampleRange) int { return (r[1] - r[0]) * sz.objects }

// Package trajcomp is the public API of the spatiotemporal trajectory
// compression library — a reproduction of Meratnia & de By,
// "Spatiotemporal Compression Techniques for Moving Point Objects"
// (EDBT 2004).
//
// The library compresses moving-object trajectories (finite series of
// time-stamped positions) with the paper's algorithm families:
//
//   - classic line generalization: Douglas-Peucker (NDP) and the
//     opening-window algorithms NOPW/BOPW, which use perpendicular distance
//     and ignore time;
//   - the paper's time-ratio algorithms TD-TR and OPW-TR, which replace the
//     perpendicular distance with the time-synchronized distance;
//   - the paper's spatiotemporal algorithms OPW-SP and TD-SP, which add a
//     speed-difference criterion;
//   - the follow-on one-pass error-bounded family OPERB and
//     CISED-S/CISED-W, which decide each point in O(1) time and memory.
//
// Every algorithm is built from a textual spec such as "tdtr:30" or
// "opwsp:30:5" (AlgorithmHelp lists the grammar): ParseAlgorithm for batch
// use, ParseOnline for streams. A spec means the same here, on the
// trajcompress command line and in trajserver's -compress flag.
//
// Compression quality is measured with the paper's time-synchronized average
// error α(p, a) (AvgError) alongside classic perpendicular measures
// (Evaluate returns all of them).
//
// Quick start:
//
//	p := trajcomp.GenerateTrip(42, trajcomp.Urban, 30*60) // or build your own
//	alg, _ := trajcomp.ParseAlgorithm("tdtr:30")          // 30 m tolerance
//	a := alg.Compress(p)
//	e, _ := trajcomp.AvgError(p, a)
//	fmt.Printf("kept %d of %d points, α = %.1f m\n", a.Len(), p.Len(), e)
//
// Subsystems exposed here:
//
//   - online compression of live position streams (ParseOnline, Collect);
//   - a moving-object store with on-ingest compression and spatiotemporal
//     range queries (NewStore), optionally backed by a write-ahead log
//     (OpenDurableStore), observable through a metrics registry
//     (NewMetricsRegistry);
//   - serialization: compact binary (EncodeFile/DecodeFile), CSV and
//     GeoJSON;
//   - road networks and HMM map matching (NewRoadGrid, MapMatch);
//   - the synthetic GPS workload generator used by the paper reproduction
//     (GenerateTrip, PaperDataset);
//   - the experiment harness regenerating the paper's Table 2 and
//     Figures 7–11 (see cmd/experiments and the benchmarks).
package trajcomp

import (
	"io"

	"repro/internal/codec"
	"repro/internal/compress"
	"repro/internal/geo"
	"repro/internal/gpsgen"
	"repro/internal/mapmatch"
	"repro/internal/metrics"
	"repro/internal/quality"
	"repro/internal/roadnet"
	"repro/internal/sed"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/trajectory"
	"repro/internal/wal"
)

// Core data types.
type (
	// Sample is one time-stamped position ⟨t, x, y⟩ (seconds, metres).
	Sample = trajectory.Sample
	// Trajectory is a series of samples with strictly increasing
	// timestamps, interpreted as a piecewise-linear path.
	Trajectory = trajectory.Trajectory
	// Builder accumulates samples incrementally with validation.
	Builder = trajectory.Builder
	// Stats summarizes a trajectory (duration, speed, length, displacement,
	// point count).
	Stats = trajectory.Stats
	// DatasetStats aggregates Stats over a set of trajectories.
	DatasetStats = trajectory.DatasetStats

	// Point is a planar position in metres.
	Point = geo.Point
	// Rect is an axis-aligned rectangle used in spatial queries.
	Rect = geo.Rect
	// LatLon is a WGS-84 coordinate.
	LatLon = geo.LatLon
	// Projector converts between WGS-84 and the local planar frame.
	Projector = geo.Projector

	// Algorithm is a batch trajectory compressor.
	Algorithm = compress.Algorithm
	// BatchOptions configures CompressAll's bounded worker pool.
	BatchOptions = compress.BatchOptions
	// Report bundles the quality evaluation of one compression run.
	Report = quality.Report

	// Compressor is an online (push-based) trajectory compressor.
	Compressor = stream.Compressor

	// Store is an in-memory moving-object database with optional on-ingest
	// compression and spatiotemporal queries.
	Store = store.Store
	// StoreOptions configures NewStore.
	StoreOptions = store.Options
	// StoreStats summarizes storage effectiveness.
	StoreStats = store.Stats
	// Neighbor is one nearest-neighbour query result.
	Neighbor = store.Neighbor
	// IndexKind selects the store's spatiotemporal index (grid or R-tree).
	IndexKind = store.IndexKind
	// DurableStore is a Store backed by a write-ahead log on disk.
	DurableStore = wal.DurableStore

	// Named pairs a trajectory with its object identifier for serialization.
	Named = codec.Named

	// TripKind selects the road environment of a generated trip.
	TripKind = gpsgen.TripKind
	// GenConfig configures the synthetic GPS generator.
	GenConfig = gpsgen.Config
	// Generator produces synthetic car trips.
	Generator = gpsgen.Generator
)

// Trip kinds for the synthetic generator.
const (
	Urban      = gpsgen.Urban
	Rural      = gpsgen.Rural
	Mixed      = gpsgen.Mixed
	Pedestrian = gpsgen.Pedestrian
)

// Store index kinds.
const (
	// IndexGrid is the uniform-grid spatiotemporal index (default).
	IndexGrid = store.IndexGrid
	// IndexRTree is the 3D R-tree index.
	IndexRTree = store.IndexRTree
)

// S is shorthand for Sample{T: t, X: x, Y: y}.
func S(t, x, y float64) Sample { return trajectory.S(t, x, y) }

// NewTrajectory validates samples and returns them as a Trajectory.
func NewTrajectory(samples []Sample) (Trajectory, error) { return trajectory.New(samples) }

// NewBuilder returns a trajectory builder with capacity for n samples.
func NewBuilder(n int) *Builder { return trajectory.NewBuilder(n) }

// Summarize computes per-trajectory statistics.
func Summarize(p Trajectory) Stats { return trajectory.Summarize(p) }

// SummarizeDataset computes mean/stddev statistics over trajectories.
func SummarizeDataset(ps []Trajectory) DatasetStats { return trajectory.SummarizeDataset(ps) }

// ParseAlgorithm builds an algorithm from a textual spec such as "tdtr:30"
// or "opwsp:30:5"; AlgorithmHelp prints the grammar.
func ParseAlgorithm(spec string) (Algorithm, error) { return compress.Parse(spec) }

// AlgorithmHelp renders the spec grammar of ParseAlgorithm, one line per
// algorithm.
func AlgorithmHelp() string { return compress.Help(false) }

// CompressAll compresses every trajectory with alg on a bounded worker pool
// (opts.Parallelism workers; 0 = GOMAXPROCS), preserving input order — the
// batch path for archival jobs over large fleets.
func CompressAll(alg Algorithm, opts BatchOptions, ps []Trajectory) []Trajectory {
	return compress.CompressAll(alg, opts, ps)
}

// CompressionRate returns the percentage of points removed when reducing
// origLen points to compLen.
func CompressionRate(origLen, compLen int) float64 { return compress.Rate(origLen, compLen) }

// Error metrics (the paper's §4).

// AvgError computes the paper's time-synchronized average error α(p, a).
func AvgError(p, a Trajectory) (float64, error) { return sed.AvgError(p, a) }

// MaxError computes the maximum synchronized distance between p and a.
func MaxError(p, a Trajectory) (float64, error) { return sed.MaxError(p, a) }

// SyncDistance returns the synchronized (time-ratio) distance between data
// point p and the segment from a to b — the paper's Eq. 1–2 discard
// criterion.
func SyncDistance(p, a, b Sample) float64 { return sed.Distance(p, a, b) }

// Evaluate measures approximation a of original p under all error metrics.
func Evaluate(name string, p, a Trajectory) (Report, error) { return quality.Evaluate(name, p, a) }

// ParseOnline builds an online compressor factory from the spec of an
// algorithm that runs incrementally: dr, nopw, bopw, opwtr, opwsp, operb,
// ciseds or cisedw (the -compress list of trajserver -h). Each call of the
// factory yields a fresh compressor whose emitted stream equals the batch
// algorithm's Compress output. The factory is nil for "none", which
// StoreOptions.NewCompressor takes as an uncompressed store.
func ParseOnline(spec string) (func() Compressor, error) { return stream.ParseFactory(spec) }

// Collect runs an online compressor over a whole trajectory.
func Collect(c Compressor, p Trajectory) (Trajectory, error) { return stream.Collect(c, p) }

// Moving-object store.

// NewStore returns an empty moving-object store.
func NewStore(opts StoreOptions) *Store { return store.New(opts) }

// OpenDurableStore opens (or creates) a store backed by the write-ahead log
// at path, replaying any existing records.
func OpenDurableStore(path string, opts StoreOptions) (*DurableStore, error) {
	return wal.OpenDurable(path, opts)
}

// Observability.

type (
	// MetricsRegistry is a named set of counters, gauges and latency
	// histograms; stores, servers and the WAL register their instruments in
	// one. Pass a registry via StoreOptions.Metrics to observe an embedded
	// store.
	MetricsRegistry = metrics.Registry
	// MetricsLabel is one name/value dimension of a metric.
	MetricsLabel = metrics.Label
	// MetricSnapshot is the point-in-time state of one instrument from
	// MetricsRegistry.Snapshot.
	MetricSnapshot = metrics.MetricSnapshot
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Serialization.

// EncodeFile writes named trajectories in the compact binary format.
func EncodeFile(w io.Writer, ts []Named) error { return codec.EncodeFile(w, ts) }

// DecodeFile reads named trajectories written by EncodeFile.
func DecodeFile(r io.Reader) ([]Named, error) { return codec.DecodeFile(r) }

// EncodeFileCompressed writes named trajectories as a DEFLATE-compressed
// binary container.
func EncodeFileCompressed(w io.Writer, ts []Named) error {
	return codec.EncodeFileCompressed(w, ts)
}

// DecodeFileCompressed reads a container written by EncodeFileCompressed.
func DecodeFileCompressed(r io.Reader) ([]Named, error) {
	return codec.DecodeFileCompressed(r)
}

// EncodeGPX writes named trajectories as GPX 1.1 tracks (proj required).
func EncodeGPX(w io.Writer, ts []Named, proj *Projector) error {
	return codec.EncodeGPX(w, ts, proj)
}

// DecodeGPX reads GPX tracks into planar trajectories; a nil proj selects a
// projector centred on the first track point, which is returned.
func DecodeGPX(r io.Reader, proj *Projector) ([]Named, *Projector, error) {
	return codec.DecodeGPX(r, proj)
}

// EncodeCSV writes named trajectories as CSV (columns id,t,x,y).
func EncodeCSV(w io.Writer, ts []Named) error { return codec.EncodeCSV(w, ts) }

// DecodeCSV reads the CSV interchange format.
func DecodeCSV(r io.Reader) ([]Named, error) { return codec.DecodeCSV(r) }

// EncodeGeoJSON writes named trajectories as a GeoJSON FeatureCollection;
// proj may be nil to emit raw planar coordinates.
func EncodeGeoJSON(w io.Writer, ts []Named, proj *Projector) error {
	return codec.EncodeGeoJSON(w, ts, proj)
}

// NewProjector returns a WGS-84 ↔ planar projector centred at origin.
func NewProjector(origin LatLon) (*Projector, error) { return geo.NewProjector(origin) }

// Road networks and map matching (the paper's "underlying transportation
// infrastructure").

// RoadGraph is an undirected road network with spatial and shortest-path
// queries.
type RoadGraph = roadnet.Graph

// RoadProjection is a position on a road edge.
type RoadProjection = roadnet.Projection

// MatchOptions tunes the map-matching HMM.
type MatchOptions = mapmatch.Options

// RoadMatch is the matched road position of one sample.
type RoadMatch = mapmatch.Match

// NewRoadGrid builds an nx × ny junction grid with the given block length.
func NewRoadGrid(nx, ny int, block float64) *RoadGraph { return roadnet.Grid(nx, ny, block) }

// MapMatch snaps a noisy trajectory onto the road network, returning the
// per-sample matches and the snapped trajectory.
func MapMatch(g *RoadGraph, p Trajectory, opts MatchOptions) ([]RoadMatch, Trajectory, error) {
	return mapmatch.Snap(g, p, opts)
}

// Synthetic workload generation.

// NewGenerator returns a deterministic synthetic GPS trip generator.
func NewGenerator(seed int64, cfg GenConfig) *Generator { return gpsgen.New(seed, cfg) }

// GenerateTrip produces one synthetic car trip of roughly the given duration
// in seconds — a convenience wrapper around NewGenerator.
func GenerateTrip(seed int64, kind TripKind, duration float64) Trajectory {
	return gpsgen.New(seed, gpsgen.Config{}).Trip(kind, duration)
}

// GenerateFleet simulates n simultaneous vehicles with scattered depots and
// staggered departures over a spread × spread metre area.
func GenerateFleet(seed int64, n int, spread, duration float64) []Trajectory {
	return gpsgen.New(seed, gpsgen.Config{}).Fleet(n, spread, duration)
}

// GenerateCommute simulates days of home–work–home travel as one trajectory
// with workday gaps (split with SplitGaps for per-leg analysis).
func GenerateCommute(seed int64, days int, kind TripKind, tripDuration float64) Trajectory {
	return gpsgen.New(seed, gpsgen.Config{}).Commute(days, kind, tripDuration)
}

// PaperDataset returns the fixed ten-trajectory dataset used to reproduce
// the paper's evaluation (calibrated against Table 2).
func PaperDataset() []Trajectory { return gpsgen.PaperDataset() }

// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): Table 2 (dataset statistics) and Figures 7–11 (the
// compression/error comparisons between the spatial and spatiotemporal
// algorithm families).
//
// The workload is the calibrated synthetic dataset of internal/gpsgen (the
// substitution for the paper's proprietary GPS traces; see DESIGN.md §4).
// Error is the paper's time-synchronized average error α(p, a) of §4.2.
// Compression is the percentage of data points removed, averaged over the
// ten trajectories — matching the paper's axes.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/gpsgen"
	"repro/internal/sed"
	"repro/internal/trajectory"
)

// Thresholds are the paper's fifteen distance thresholds: 30–100 m in 5 m
// steps.
func Thresholds() []float64 {
	out := make([]float64, 0, 15)
	for i := 0; i < 15; i++ {
		out = append(out, 30+float64(i)*5)
	}
	return out
}

// SpeedThresholds are the paper's three speed-difference thresholds in m/s.
func SpeedThresholds() []float64 { return []float64{5, 15, 25} }

// Dataset returns the ten evaluation trajectories. The result is cached;
// callers must not modify it.
func Dataset() []trajectory.Trajectory {
	datasetOnce.Do(func() { dataset = gpsgen.PaperDataset() })
	return dataset
}

var (
	datasetOnce sync.Once
	dataset     []trajectory.Trajectory
)

// Series is one algorithm's sweep over the distance thresholds.
type Series struct {
	Name        string
	Thresholds  []float64
	Compression []float64 // percent of points removed, averaged over trips
	Error       []float64 // α(p, a) in metres, averaged over trips
}

// Figure is one reproduced figure: a titled collection of series.
type Figure struct {
	ID     string // e.g. "Figure 7"
	Title  string
	Series []Series
	// XLabel names the swept parameter; empty means "threshold (m)".
	XLabel string
}

// Factory builds an algorithm for a given distance threshold.
type Factory struct {
	Name string
	New  func(distThreshold float64) compress.Algorithm
}

// defaultGridPar is the number of grid cells a sweep evaluates at once;
// ≤ 0 means GOMAXPROCS.
var defaultGridPar atomic.Int64

// SetDefaultGridParallelism sets the number of grid cells (one algorithm at
// one threshold over the whole dataset) a sweep evaluates at once; n ≤ 0
// restores the GOMAXPROCS default. It exists for cmd/experiments' -parallel
// flag and should be set before sweeps start.
func SetDefaultGridParallelism(n int) { defaultGridPar.Store(int64(n)) }

// Sweep runs one algorithm family over all thresholds and the standard
// dataset.
func Sweep(f Factory) Series { return SweepOn(Dataset(), f) }

// SweepOn runs one algorithm family over all thresholds and an arbitrary
// dataset — used by robustness checks that re-run the evaluation on
// different synthetic seeds.
func SweepOn(ds []trajectory.Trajectory, f Factory) Series { return sweep(ds, []Factory{f})[0] }

// SweepAll runs several families over the standard dataset on one shared
// worker pool (the sweeps are pure and the dataset is read-only),
// preserving input order in the result.
func SweepAll(fs ...Factory) []Series { return sweep(Dataset(), fs) }

// sweep evaluates the full (factory × threshold) grid of the paper's
// evaluation — e.g. 10 trajectories × 15 thresholds × several algorithm
// families. The algorithms are embarrassingly parallel across grid cells,
// so cells are handed to a bounded worker pool (SetDefaultGridParallelism);
// one Series per factory is returned in input order.
func sweep(ds []trajectory.Trajectory, fs []Factory) []Series {
	ths := Thresholds()
	out := make([]Series, len(fs))
	for i, f := range fs {
		out[i] = Series{
			Name:        f.Name,
			Thresholds:  ths,
			Compression: make([]float64, len(ths)),
			Error:       make([]float64, len(ths)),
		}
	}

	type cell struct{ fi, ti int }
	workers := int(defaultGridPar.Load())
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	next := make(chan cell)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(fs)*len(ths)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				out[c.fi].Compression[c.ti], out[c.fi].Error[c.ti] = runPoint(ds, fs[c.fi].New(ths[c.ti]))
			}
		}()
	}
	for fi := range fs {
		for ti := range ths {
			next <- cell{fi, ti}
		}
	}
	close(next)
	wg.Wait()
	return out
}

// runPoint evaluates one grid cell: it compresses every trajectory of ds
// with alg and returns the mean compression percentage and mean
// synchronized error.
func runPoint(ds []trajectory.Trajectory, alg compress.Algorithm) (compPct, errAvg float64) {
	for _, p := range ds {
		a := alg.Compress(p)
		compPct += compress.Rate(p.Len(), a.Len())
		e, err := sed.AvgError(p, a)
		if err != nil {
			// The dataset trajectories all have ≥ 2 points and compression
			// preserves endpoints, so this is a programming error.
			panic(fmt.Sprintf("experiments: %s: %v", alg.Name(), err))
		}
		errAvg += e
	}
	n := float64(len(ds))
	return compPct / n, errAvg / n
}

// Standard factories for the algorithms the paper compares.
var (
	NDPFactory   = Factory{"NDP", func(d float64) compress.Algorithm { return compress.DouglasPeucker{Threshold: d} }}
	TDTRFactory  = Factory{"TD-TR", func(d float64) compress.Algorithm { return compress.TDTR{Threshold: d} }}
	NOPWFactory  = Factory{"NOPW", func(d float64) compress.Algorithm { return compress.NOPW{Threshold: d} }}
	BOPWFactory  = Factory{"BOPW", func(d float64) compress.Algorithm { return compress.BOPW{Threshold: d} }}
	OPWTRFactory = Factory{"OPW-TR", func(d float64) compress.Algorithm { return compress.OPWTR{Threshold: d} }}
)

// OPWSPFactory returns the OPW-SP family member with the given speed
// threshold.
func OPWSPFactory(speed float64) Factory {
	return Factory{
		Name: fmt.Sprintf("OPW-SP(%gm/s)", speed),
		New: func(d float64) compress.Algorithm {
			return compress.OPWSP{DistThreshold: d, SpeedThreshold: speed}
		},
	}
}

// One-pass family factories (OPERB and CISED; see internal/compress). They
// sweep the same distance-threshold axis as the paper's algorithms: for
// OPERB the threshold bounds the perpendicular distance, for CISED the
// synchronized distance.
var (
	OPERBFactory  = Factory{"OPERB", func(d float64) compress.Algorithm { return compress.OPERB{Threshold: d} }}
	CISEDSFactory = Factory{"CISED-S", func(d float64) compress.Algorithm { return compress.CISEDS{Threshold: d} }}
	CISEDWFactory = Factory{"CISED-W", func(d float64) compress.Algorithm { return compress.CISEDW{Threshold: d} }}
)

// TDSPFactory returns the TD-SP family member with the given speed
// threshold.
func TDSPFactory(speed float64) Factory {
	return Factory{
		Name: fmt.Sprintf("TD-SP(%gm/s)", speed),
		New: func(d float64) compress.Algorithm {
			return compress.TDSP{DistThreshold: d, SpeedThreshold: speed}
		},
	}
}

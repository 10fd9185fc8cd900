package stream

import (
	"repro/internal/metrics"
	"repro/internal/trajectory"
)

// Instruments aggregates live compression observability across a set of
// online compressors (typically: every object of one store). All fields
// update atomically, so one Instruments value may be shared by wrappers
// running under different locks.
type Instruments struct {
	// in and out count raw samples pushed and retained samples emitted;
	// their ratio is the live compression rate.
	in, out *metrics.Counter
	// ratio is the derived live compression percentage (points discarded).
	ratio *metrics.Gauge
	// buffered is the total number of samples currently held inside
	// compressor windows — the memory the opening-window algorithms trade
	// for their online guarantee.
	buffered *metrics.Gauge
}

// NewInstruments registers the stream instruments in r (nil selects the
// default registry):
//
//	stream_points_in_total          raw samples pushed
//	stream_points_out_total         retained samples emitted
//	stream_compression_ratio_pct    live % of points discarded
//	stream_buffered_samples         samples buffered across compressor windows
func NewInstruments(r *metrics.Registry) *Instruments {
	if r == nil {
		r = metrics.Default()
	}
	return &Instruments{
		in:       r.Counter("stream_points_in_total"),
		out:      r.Counter("stream_points_out_total"),
		ratio:    r.Gauge("stream_compression_ratio_pct"),
		buffered: r.Gauge("stream_buffered_samples"),
	}
}

// bufferLener is implemented by compressors that expose their buffer
// occupancy (every compressor built by New does).
type bufferLener interface {
	BufferLen() int
}

// Instrument wraps a compressor so pushes and emissions update ins. A nil
// ins returns c unchanged. The wrapper is exactly as concurrency-safe as
// the wrapped compressor (not safe for concurrent use; callers serialize).
func Instrument(c Compressor, ins *Instruments) Compressor {
	if ins == nil {
		return c
	}
	return &instrumented{c: c, ins: ins}
}

type instrumented struct {
	c       Compressor
	ins     *Instruments
	lastBuf int
}

func (w *instrumented) Push(s trajectory.Sample) ([]trajectory.Sample, error) {
	emitted, err := w.c.Push(s)
	if err != nil {
		return emitted, err
	}
	w.ins.in.Inc()
	w.ins.out.Add(int64(len(emitted)))
	w.sync()
	return emitted, nil
}

func (w *instrumented) Flush() []trajectory.Sample {
	out := w.c.Flush()
	w.ins.out.Add(int64(len(out)))
	w.sync()
	return out
}

// sync publishes the wrapper's buffer-occupancy delta and refreshes the
// derived compression ratio.
func (w *instrumented) sync() {
	if bl, ok := w.c.(bufferLener); ok {
		if n := bl.BufferLen(); n != w.lastBuf {
			w.ins.buffered.Add(float64(n - w.lastBuf))
			w.lastBuf = n
		}
	}
	if in := w.ins.in.Value(); in > 0 {
		w.ins.ratio.Set(100 * (1 - float64(w.ins.out.Value())/float64(in)))
	}
}

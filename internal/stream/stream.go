// Package stream runs the incremental algorithms of internal/compress over
// position streams in real time with bounded memory — the paper's motivation
// for studying opening-window algorithms at all ("they are online
// algorithms", §2.2).
//
// An online compressor receives samples one at a time and emits retained
// samples as soon as their fate is decided. It is a compress.Engine behind
// a timestamp-order check, and the batch Compress of the same algorithm is
// that engine run over a slice, so the emitted stream equals the batch
// result by construction. The package itself holds no algorithm: which
// ones exist, what their spec strings mean and what they do per point is
// internal/compress's business.
package stream

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/compress"
	"repro/internal/trajectory"
)

// Compressor consumes a stream of samples and emits the retained
// subsequence incrementally.
type Compressor interface {
	// Push feeds one sample and returns any samples whose retention became
	// definite. Samples must arrive with strictly increasing timestamps.
	// The returned slice is only valid until the next call.
	Push(s trajectory.Sample) ([]trajectory.Sample, error)
	// Flush terminates the stream, returning the remaining retained samples
	// (at least the final input sample, if any input was seen after the
	// last emission). The returned slice is only valid until the next call.
	// The compressor is reusable for a new stream after Flush.
	Flush() []trajectory.Sample
}

// ErrOutOfOrder is returned by Push for non-increasing timestamps.
var ErrOutOfOrder = errors.New("stream: sample timestamps must strictly increase")

// online adapts a compress.Engine to Compressor, adding the one thing input
// from outside the program needs: rejection of non-increasing timestamps.
type online struct {
	engine compress.Engine
	seen   bool
	prevT  float64
}

// New returns a fresh online compressor running alg's engine. It panics on
// invalid algorithm parameters, as alg.Compress would.
func New(alg compress.Online) Compressor {
	return &online{engine: alg.NewEngine()}
}

func (o *online) Push(s trajectory.Sample) ([]trajectory.Sample, error) {
	if o.seen && s.T <= o.prevT {
		return nil, fmt.Errorf("%w: t=%v after t=%v", ErrOutOfOrder, s.T, o.prevT)
	}
	o.seen = true
	o.prevT = s.T
	return o.engine.Push(s), nil
}

func (o *online) Flush() []trajectory.Sample {
	o.seen = false
	return o.engine.Flush()
}

// BufferLen reports how many samples the engine buffers: the window of the
// opening-window family, at most one for dead reckoning and the one-pass
// algorithms.
func (o *online) BufferLen() int { return o.engine.Pending() }

// ParseFactory builds a compressor factory from a compress.Parse spec (see
// compress.Help for the grammar), as used by the tracking server. Only
// algorithms that can run incrementally are accepted. The returned factory
// yields a fresh compressor per call; it is nil for "none" (no compression).
func ParseFactory(spec string) (func() Compressor, error) {
	if strings.EqualFold(strings.TrimSpace(spec), "none") {
		return nil, nil
	}
	alg, err := compress.Parse(spec)
	if err != nil {
		return nil, err
	}
	on, ok := alg.(compress.Online)
	if !ok {
		return nil, fmt.Errorf("stream: spec %q: %s cannot run online (want none, %s)",
			spec, alg.Name(), strings.Join(compress.Names(true), ", "))
	}
	return func() Compressor { return New(on) }, nil
}

// Collect runs a compressor over a whole trajectory and gathers the emitted
// stream, including the flush — a convenience for tests and batch callers.
func Collect(c Compressor, p trajectory.Trajectory) (trajectory.Trajectory, error) {
	var out trajectory.Trajectory
	for _, s := range p {
		emitted, err := c.Push(s)
		if err != nil {
			return nil, err
		}
		out = append(out, emitted...)
	}
	return append(out, c.Flush()...), nil
}

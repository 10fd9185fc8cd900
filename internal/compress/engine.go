package compress

import "repro/internal/trajectory"

// Engine is the incremental form of an algorithm: samples go in one at a
// time and retained samples come out as soon as their fate is decided.
// Engines do not check timestamp order (internal/stream does, for input
// arriving from outside) and are not safe for concurrent use.
type Engine interface {
	// Push feeds one sample and returns the samples whose retention became
	// definite. The returned slice is only valid until the next call.
	Push(s trajectory.Sample) []trajectory.Sample
	// Flush ends the stream, returning the remaining retained samples, and
	// resets the engine for reuse. The returned slice is only valid until
	// the next call.
	Flush() []trajectory.Sample
	// Pending reports how many samples the engine currently buffers.
	Pending() int
}

// Online is implemented by the algorithms that can run incrementally. Their
// Compress is, by definition, a fresh engine run over the whole slice, so
// the batch result and the online stream cannot differ.
type Online interface {
	Algorithm
	// NewEngine returns a fresh engine; it panics on invalid parameters,
	// exactly as Compress does.
	NewEngine() Engine
}

// runEngine is Compress for every Online algorithm.
func runEngine(p trajectory.Trajectory, e Engine) trajectory.Trajectory {
	if q, ok := small(p); ok {
		return q
	}
	out := make(trajectory.Trajectory, 0, 8)
	for _, s := range p {
		for _, kept := range e.Push(s) { // almost always 0 or 1 samples
			out = append(out, kept)
		}
	}
	return append(out, e.Flush()...)
}

// opwEngine is the opening-window scheme (paper §2.2 and the SPT pseudocode
// of §3.3), the only copy of that loop in the module.
//
// The buffered window holds the current anchor at index 0 and the float at
// the end. The float starts two positions after the anchor; every
// intermediate point is tested against the anchor–float segment, and on the
// first violation the window is cut according to the break strategy, the cut
// point becomes the new anchor, and the scan restarts inside the shrunk
// window. Without violation the float moves one up. fe is the largest float
// index already validated against all its intermediates, so each Push costs
// one O(window) scan, and the window never outgrows WindowCap.
type opwEngine struct {
	// violates reports whether w[i] breaks the halting condition for the
	// candidate segment w[0] – w[len(w)-1].
	violates func(w []trajectory.Sample, i int) bool
	strategy BreakStrategy
	dropTail bool

	window []trajectory.Sample
	fe     int
	out    []trajectory.Sample
}

// WindowCap bounds the buffered window of every opening-window algorithm,
// batch or online: when the window outgrows it, the sample before the float
// is retained. A parked or constant-velocity object would otherwise fit its
// anchor–float segment forever and cost O(n) per fix. On the paper's
// dataset no window grows past 107 samples (NOPW and BOPW; OPW-TR stays
// within 52 at 30–100 m), so the cap changes none of the paper's outputs.
const WindowCap = 512

func newOPWEngine(name string, threshold float64, strategy BreakStrategy, dropTail bool,
	violates func(w []trajectory.Sample, i int) bool) *opwEngine {
	validateDistance(name, threshold)
	return &opwEngine{violates: violates, strategy: strategy, dropTail: dropTail}
}

func (o *opwEngine) Push(s trajectory.Sample) []trajectory.Sample {
	o.out = o.out[:0]
	o.window = append(o.window, s)
	if len(o.window) == 1 {
		// The very first sample of a stream is always retained.
		o.fe = 1
		o.out = append(o.out, s)
		return o.out
	}
	e := o.fe + 1
	for e < len(o.window) {
		cut := -1
		w := o.window[:e+1]
		for i := 1; i < e; i++ {
			if o.violates(w, i) {
				cut = i
				if o.strategy == BreakBefore {
					cut = e - 1
				}
				break
			}
		}
		if cut < 0 {
			o.fe = e
			e++
			continue
		}
		o.emit(cut)
		e = 2
	}
	if len(o.window) > WindowCap {
		// Forced cut to bound memory: retain the sample before the float,
		// the most recent point whose segment has been validated.
		o.emit(len(o.window) - 2)
	}
	return o.out
}

// emit retains window[cut] and re-anchors the window there.
func (o *opwEngine) emit(cut int) {
	o.out = append(o.out, o.window[cut])
	o.window = append(o.window[:0], o.window[cut:]...)
	o.fe = 1
}

// Flush closes the last window with the final sample — the countermeasure
// the paper calls for after observing that opening-window algorithms "may
// lose the last few data points". With dropTail the raw behaviour of
// Figs. 2–3 is reproduced for ablation: the tail after the last cut is
// discarded.
func (o *opwEngine) Flush() []trajectory.Sample {
	o.out = o.out[:0]
	if n := len(o.window); n > 1 && !o.dropTail {
		o.out = append(o.out, o.window[n-1])
	}
	o.window = o.window[:0]
	return o.out
}

// Pending reports the window occupancy, anchor included — the memory the
// opening-window algorithms trade for their online guarantee.
func (o *opwEngine) Pending() int { return len(o.window) }

// drEngine is the dead-reckoning step: the velocity of the segment leaving
// the anchor predicts every later position, and the first sample deviating
// from its prediction by more than threshold becomes the next anchor. The
// sample that defines the velocity is not tested: its prediction error is
// pure rounding.
type drEngine struct {
	threshold    float64
	anchor, prev trajectory.Sample
	vx, vy       float64
	n            int // samples seen since the anchor was set, anchor included
	out          []trajectory.Sample
}

func (d *drEngine) Push(s trajectory.Sample) []trajectory.Sample {
	d.out = d.out[:0]
	switch d.n {
	case 0:
		d.anchor = s
		d.out = append(d.out, s)
	case 1:
		dt := s.T - d.anchor.T
		d.vx = (s.X - d.anchor.X) / dt
		d.vy = (s.Y - d.anchor.Y) / dt
	default:
		dt := s.T - d.anchor.T
		dx := s.X - (d.anchor.X + d.vx*dt)
		dy := s.Y - (d.anchor.Y + d.vy*dt)
		if dx*dx+dy*dy > d.threshold*d.threshold {
			d.out = append(d.out, s)
			d.anchor = s
			d.n = 0 // the velocity re-derives from the next sample
		}
	}
	d.prev = s
	d.n++
	return d.out
}

// Flush emits the final sample unless it was itself retained.
func (d *drEngine) Flush() []trajectory.Sample {
	d.out = d.out[:0]
	if d.n > 1 {
		d.out = append(d.out, d.prev)
	}
	d.n = 0
	return d.out
}

// Pending reports the one trailing sample behind the anchor, if any.
func (d *drEngine) Pending() int {
	if d.n > 1 {
		return 1
	}
	return 0
}

package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/geo"
	"repro/internal/sed"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

// model is the harness's reference for the output checks: every sample the
// server acknowledged is also pushed through a local compressor of the
// server's spec, so the expected content of every object is known exactly.
type model struct {
	fleet   fleet
	objs    []refObject
	sealCut float64 // samples before it were sealed; -Inf when nothing is
	sealEps float64 // cold-tier error bound, 0 without one
	maxSED  float64 // the on-ingest compressor's error bound, 0 for none
}

type refObject struct {
	comp     stream.Compressor     // nil stores raw
	retained trajectory.Trajectory // samples whose retention is final
	n        int                   // samples pushed: fleet.trips[i][:n]
}

func newModel(f fleet, newComp func() stream.Compressor, maxSED float64) *model {
	m := &model{fleet: f, objs: make([]refObject, len(f.trips)), sealCut: math.Inf(-1), maxSED: maxSED}
	if newComp != nil {
		for i := range m.objs {
			m.objs[i].comp = newComp()
		}
	}
	return m
}

// advance pushes samples [o.n, upto) of every object.
func (m *model) advance(upto int) error {
	for i := range m.objs {
		if err := m.advanceObject(i, upto); err != nil {
			return err
		}
	}
	return nil
}

func (m *model) advanceObject(i, upto int) error {
	o := &m.objs[i]
	trip := m.fleet.trips[i]
	for ; o.n < min(upto, len(trip)); o.n++ {
		if o.comp == nil {
			o.retained = append(o.retained, trip[o.n])
			continue
		}
		kept, err := o.comp.Push(trip[o.n])
		if err != nil {
			return fmt.Errorf("model: object %d: %w", i, err)
		}
		o.retained = append(o.retained, kept...)
	}
	return nil
}

// raw returns the total number of samples pushed.
func (m *model) raw() int {
	n := 0
	for i := range m.objs {
		n += m.objs[i].n
	}
	return n
}

// snapshot is what SNAPSHOT must return for object i: the final retained
// samples that are still hot, plus the newest raw sample while it sits in
// the compressor's open window.
func (m *model) snapshot(i int) trajectory.Trajectory {
	o := &m.objs[i]
	out := o.retained[m.hotFrom(i):].Clone()
	if o.n > 0 {
		last := m.fleet.trips[i][o.n-1]
		if len(out) == 0 || last.T > out[len(out)-1].T {
			out = append(out, last)
		}
	}
	return out
}

// hotFrom is the index of object i's first retained sample left hot by SEAL.
func (m *model) hotFrom(i int) int {
	ret := m.objs[i].retained
	return sort.Search(len(ret), func(k int) bool { return ret[k].T >= m.sealCut })
}

// positionFrom is the earliest time POSITION can answer for object i: the
// hot tier's first sample; +Inf while the object has no final hot sample.
func (m *model) positionFrom(i int) float64 {
	o := &m.objs[i]
	if k := m.hotFrom(i); k < len(o.retained) {
		return o.retained[k].T
	}
	return math.Inf(1)
}

// checkSnapshot verifies one object's SNAPSHOT against the model: exact
// equality with the reference compressor's output (which implies the
// retained count), a subsequence of the raw trip, and max SED within bound.
func (m *model) checkSnapshot(i int, got trajectory.Trajectory) error {
	want := m.snapshot(i)
	if len(got) != len(want) {
		return fmt.Errorf("object %s: snapshot has %d samples, reference compressor keeps %d", m.fleet.ids[i], len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			return fmt.Errorf("object %s: snapshot sample %d is %v, reference has %v", m.fleet.ids[i], k, got[k], want[k])
		}
	}
	raw := m.fleet.trips[i][:m.objs[i].n]
	if !got.IsVertexSubsetOf(raw) {
		return fmt.Errorf("object %s: snapshot is not a subsequence of the raw trip", m.fleet.ids[i])
	}
	if len(got) < 2 {
		return nil
	}
	// Compared over the span the snapshot covers (the hot tier, after SEAL).
	worst, err := sed.MaxError(raw, got)
	if err != nil {
		return fmt.Errorf("object %s: %w", m.fleet.ids[i], err)
	}
	if worst > m.maxSED+1e-6 {
		return fmt.Errorf("object %s: max SED %.3f m exceeds the %.0f m bound", m.fleet.ids[i], worst, m.maxSED)
	}
	return nil
}

// rangePoint is one parsed QUERYRANGE reply line.
type rangePoint struct {
	obj int
	s   trajectory.Sample
}

func parseRangeReply(reply []byte) ([]rangePoint, error) {
	var out []rangePoint
	for _, line := range bytes.Split(bytes.TrimRight(reply, "\n"), []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		f := bytes.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("bad QUERYRANGE line %q", line)
		}
		var v [3]float64
		for k := range v {
			var err error
			if v[k], err = strconv.ParseFloat(string(f[k+1]), 64); err != nil {
				return nil, fmt.Errorf("bad QUERYRANGE line %q", line)
			}
		}
		obj := objectIndex(string(f[0]))
		if obj < 0 {
			return nil, fmt.Errorf("unknown object in QUERYRANGE line %q", line)
		}
		out = append(out, rangePoint{obj: obj, s: trajectory.S(v[0], v[1], v[2])})
	}
	return out, nil
}

// checkRange verifies a QUERYRANGE reply against a brute-force filter over
// the model. Writes running beside the query can only add samples newer than
// each object's last final one, so both sides are compared up to that sample
// (stable[i], captured when the query plan was made).
//
// A window answered by the hot tier must match exactly. One answered from
// sealed blocks returns reconstructions: every point must lie within the
// cold tier's bound of a retained original, and the count must fall between
// the originals surely inside the window and those possibly inside it.
func (m *model) checkRange(q queryCase, reply []byte, stable []float64) error {
	got, err := parseRangeReply(reply)
	if err != nil {
		return err
	}
	cold := m.sealEps > 0 && q.t1 < m.sealCut
	if !cold {
		var want []rangePoint
		for i := range m.objs {
			for _, s := range m.objs[i].retained {
				if s.T >= q.t0 && s.T <= q.t1 && s.T <= stable[i] && q.rect.Contains(s.Pos()) {
					want = append(want, rangePoint{obj: i, s: s})
				}
			}
		}
		// The first hot sample of an object is also the last sealed block's
		// closing sample, and the cold tier answers for the window grown by
		// its bound: that one sample may come back though it lies up to
		// sealEps outside the rectangle.
		grown := q.rect.Expand(m.sealEps + 1e-6)
		onSealBoundary := func(p rangePoint) bool {
			ret := m.objs[p.obj].retained
			k := m.hotFrom(p.obj)
			return m.sealEps > 0 && k < len(ret) && ret[k] == p.s && grown.Contains(p.s.Pos())
		}
		k := 0
		for _, p := range got {
			switch {
			case p.s.T > stable[p.obj]:
			case k < len(want) && p == want[k]:
				k++
			case onSealBoundary(p):
			case k < len(want):
				return fmt.Errorf("range query returned %v of object %d where brute force has %v of object %d (point %d of %d)",
					p.s, p.obj, want[k].s, want[k].obj, k, len(want))
			default:
				return fmt.Errorf("range query returned %v of object %d beyond the %d points brute force finds", p.s, p.obj, len(want))
			}
		}
		if k != len(want) {
			return fmt.Errorf("range query returned %d of the %d points brute force finds", k, len(want))
		}
		return nil
	}

	const timeSlack = 0.01 // seconds; sealed time deltas are float32
	eps := m.sealEps + 1e-6
	for _, p := range got {
		ret := m.objs[p.obj].retained
		k := sort.Search(len(ret), func(k int) bool { return ret[k].T >= p.s.T-timeSlack })
		if k == len(ret) || math.Abs(ret[k].T-p.s.T) > timeSlack {
			return fmt.Errorf("cold range point %v of object %d matches no retained sample in time", p.s, p.obj)
		}
		if d := ret[k].Pos().Dist(p.s.Pos()); d > eps {
			return fmt.Errorf("cold range point %v of object %d is %.3f m from its original, bound is %g m", p.s, p.obj, d, m.sealEps)
		}
	}
	inner := geo.Rect{Min: geo.Pt(q.rect.Min.X+eps, q.rect.Min.Y+eps), Max: geo.Pt(q.rect.Max.X-eps, q.rect.Max.Y-eps)}
	outer := q.rect.Expand(2 * eps)
	lo, hi := 0, 0
	for i := range m.objs {
		for _, s := range m.objs[i].retained {
			if s.T >= q.t0+timeSlack && s.T <= q.t1-timeSlack && inner.Contains(s.Pos()) {
				lo++
			}
			if s.T >= q.t0-timeSlack && s.T <= q.t1+timeSlack && outer.Contains(s.Pos()) {
				hi++
			}
		}
	}
	if len(got) < lo || len(got) > hi {
		return fmt.Errorf("cold range query returned %d points, brute force bounds are [%d, %d]", len(got), lo, hi)
	}
	return nil
}

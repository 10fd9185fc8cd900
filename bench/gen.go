package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"

	"repro/internal/geo"
	"repro/internal/gpsgen"
	"repro/internal/trajectory"
)

// fleet is the generated input of one run: one trip per object. Everything
// the server receives is derived from it, so a seed fixes the bytes sent.
type fleet struct {
	ids   []string
	trips []trajectory.Trajectory
}

// genWorkers is how many generators build a fleet, each over its own half of
// the objects with its own seed derived from the run seed, so the result
// does not depend on scheduling.
const genWorkers = 2

// genFleet simulates objects vehicles for duration seconds each, over a
// spread × spread metre area, with gpsgen's default car model. Coordinates
// are rounded to a centimetre and times to a millisecond — what a GPS
// gateway would send — which keeps wire lines short and makes every value
// survive the text protocol bit-exactly.
func genFleet(seed int64, objects int, spread, duration float64) fleet {
	f := fleet{
		ids:   make([]string, objects),
		trips: make([]trajectory.Trajectory, objects),
	}
	for i := range f.ids {
		f.ids[i] = objectID(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < genWorkers; w++ {
		lo, hi := objects*w/genWorkers, objects*(w+1)/genWorkers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			g := gpsgen.New(seed*genWorkers+int64(w), gpsgen.DefaultConfig())
			for i, trip := range g.Fleet(hi-lo, spread, duration) {
				for k := range trip {
					trip[k].T = math.Round(trip[k].T*1e3) / 1e3
					trip[k].X = math.Round(trip[k].X*1e2) / 1e2
					trip[k].Y = math.Round(trip[k].Y*1e2) / 1e2
				}
				f.trips[lo+i] = trip
			}
		}(w, lo, hi)
	}
	wg.Wait()
	return f
}

// objectID names object i. IDs have one fixed width so that WAL bytes per
// point, which include the ID, do not depend on the fleet size digit count.
func objectID(i int) string { return fmt.Sprintf("v%05d", i) }

// objectIndex inverts objectID; -1 for a foreign ID.
func objectIndex(id string) int {
	if len(id) != 6 || id[0] != 'v' {
		return -1
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return -1
	}
	return n
}

// span returns the earliest start and latest end time over samples
// [0, upto) of all trips.
func (f fleet) span(upto int) (t0, t1 float64) {
	t0, t1 = math.Inf(1), math.Inf(-1)
	for _, trip := range f.trips {
		t0 = math.Min(t0, trip[0].T)
		t1 = math.Max(t1, trip[min(upto, len(trip))-1].T)
	}
	return t0, t1
}

// appendSample renders "<t> <x> <y>" exactly as the server's %g would, so a
// relayed POS line can be matched to the APPEND that caused it byte for byte.
func appendSample(dst []byte, s trajectory.Sample) []byte {
	dst = strconv.AppendFloat(dst, s.T, 'g', -1, 64)
	dst = append(dst, ' ')
	dst = strconv.AppendFloat(dst, s.X, 'g', -1, 64)
	dst = append(dst, ' ')
	dst = strconv.AppendFloat(dst, s.Y, 'g', -1, 64)
	return dst
}

// request is one pre-rendered wire command: the load loops only write bytes,
// so the generator's own CPU, which it shares with the server, stays small.
type request struct {
	obj    int32  // object index
	points int32  // samples carried
	wire   []byte // command line(s), newline-terminated
}

// requests renders samples [from, to) of every object as commands of batch
// samples each — single APPENDs when batch is 1, MAPPENDs otherwise — in
// fleet time order: batch k of every object before batch k+1 of any, the
// order a tracking gateway would see. Object i goes to connection i % conns,
// which keeps each object's samples in order on one connection.
func (f fleet) requests(from, to, batch, conns int) [][]request {
	out := make([][]request, conns)
	size := 0
	for _, trip := range f.trips {
		if hi := min(to, len(trip)); hi > from {
			size += (hi - from) * 40
		}
	}
	arena := make([]byte, 0, size)
	for k := from; k < to; k += batch {
		for i, trip := range f.trips {
			hi := min(k+batch, to, len(trip))
			if hi <= k {
				continue
			}
			start := len(arena)
			if batch == 1 {
				arena = append(arena, "APPEND "...)
				arena = append(arena, f.ids[i]...)
				arena = append(arena, ' ')
				arena = appendSample(arena, trip[k])
				arena = append(arena, '\n')
			} else {
				arena = append(arena, "MAPPEND "...)
				arena = append(arena, f.ids[i]...)
				arena = append(arena, ' ')
				arena = strconv.AppendInt(arena, int64(hi-k), 10)
				arena = append(arena, '\n')
				for _, s := range trip[k:hi] {
					arena = appendSample(arena, s)
					arena = append(arena, '\n')
				}
			}
			c := i % conns
			out[c] = append(out[c], request{obj: int32(i), points: int32(hi - k), wire: arena[start:len(arena):len(arena)]})
		}
	}
	return out
}

// queryKind indexes the five commands of the seeded query cycle.
type queryKind int

const (
	rangeHot queryKind = iota
	rangeCold
	nearestHot
	nearestCold
	position
	numQueryKinds
)

var queryKindNames = [numQueryKinds]string{"range_hot", "range_cold", "nearest_hot", "nearest_cold", "position"}

// queryCase is one probe, anchored on a real fix so it hits data.
type queryCase struct {
	kind   queryKind
	rect   geo.Rect // range queries
	t0, t1 float64
	center geo.Point // nearest
	at     float64   // nearest and position
	obj    int       // position
	wire   []byte
}

// Query shapes. The window is small against the fleet's area and trip
// length, as a dispatcher's "who was near here around then" is, so a reply
// carries tens of points and scan cost is not hidden behind encode cost.
const (
	queryEdge    = 1500.0 // metres, range window edge
	queryHalfWin = 450.0  // seconds, half the range window's time extent
	nearestK     = 8
)

// queryPlan builds the seeded query cycle over samples [0, upto) of every
// trip: cases per kind, "hot" ones anchored at or after cut and "cold" ones
// before it. The cycle order is range hot, range cold, nearest hot, nearest
// cold, position, repeated. posFrom[i] is the earliest time POSITION can
// answer for object i (its hot tier's first sample).
func (f fleet) queryPlan(seed int64, upto int, cut float64, cases int, posFrom []float64) []queryCase {
	rng := rand.New(rand.NewSource(seed ^ 0x51ed))
	pick := func(hot bool) (int, trajectory.Sample) {
		for {
			i := rng.Intn(len(f.trips))
			trip := f.trips[i][:min(upto, len(f.trips[i]))]
			s := trip[rng.Intn(len(trip))]
			if (s.T >= cut) == hot {
				return i, s
			}
		}
	}
	plan := make([]queryCase, 0, cases*int(numQueryKinds))
	for c := 0; c < cases; c++ {
		for kind := queryKind(0); kind < numQueryKinds; kind++ {
			hot := kind == rangeHot || kind == nearestHot || kind == position
			i, s := pick(hot)
			for kind == position && s.T < posFrom[i] {
				i, s = pick(hot)
			}
			q := queryCase{kind: kind, obj: i, at: s.T, center: s.Pos()}
			switch kind {
			case rangeHot, rangeCold:
				q.rect = geo.Rect{
					Min: geo.Pt(s.X-queryEdge/2, s.Y-queryEdge/2),
					Max: geo.Pt(s.X+queryEdge/2, s.Y+queryEdge/2),
				}
				q.t0, q.t1 = s.T-queryHalfWin, s.T+queryHalfWin
				// A window never straddles the cut, so each query is
				// answered by the tier it is named after.
				if hot {
					q.t0 = math.Max(q.t0, cut)
				} else {
					q.t1 = math.Min(q.t1, math.Nextafter(cut, math.Inf(-1)))
				}
				q.wire = fmt.Appendf(nil, "QUERYRANGE %g %g %g %g %g %g\n",
					q.rect.Min.X, q.rect.Min.Y, q.rect.Max.X, q.rect.Max.Y, q.t0, q.t1)
			case nearestHot, nearestCold:
				q.wire = fmt.Appendf(nil, "NEAREST %g %g %g %d\n", s.X, s.Y, s.T, nearestK)
			case position:
				q.wire = fmt.Appendf(nil, "POSITION %s %g\n", f.ids[i], s.T)
			}
			plan = append(plan, q)
		}
	}
	return plan
}

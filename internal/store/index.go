package store

import (
	"math"

	"repro/internal/geo"
	"repro/internal/rtree"
)

// spatialIndex abstracts the spatiotemporal index of closed runs backing
// Query.
type spatialIndex interface {
	insert(id string, box geo.Rect, t0, t1 float64)
	query(rect geo.Rect, t0, t1 float64) map[string]bool
}

// gridIndex is a uniform spatial grid over trajectory runs. Each entry
// carries the run's bounding box and time interval; a run spanning several
// cells is inserted into each. The work of both operations is bounded by what
// the index holds, never by the coordinates passed in: a run whose box covers
// more than maxSegmentCells cells (one segment of a GPS glitch or a sparse
// track: a longer run never outgrows the cell size) is filed once under
// oversize, and a query rectangle spanning more cells than are populated
// walks the populated cells instead.
type gridIndex struct {
	cell     float64
	cells    map[cellKey][]entry
	oversize []entry // scanned by every query
}

type cellKey struct{ cx, cy int32 }

type entry struct {
	id     string
	box    geo.Rect
	t0, t1 float64
}

const (
	// maxSegmentCells is a box of about 8 km × 8 km at the default 1 km
	// cell: more than road vehicles cover between two retained fixes under
	// the deployed compressors, small enough that one insert stays a few KiB.
	// It counts cells, not metres, so it shrinks with -cell: at a 100 m cell,
	// or for sparse or fast tracks (ships, aircraft), most segments are
	// oversize and every query scans them linearly — correct and bounded by
	// the data held, but no longer an index (TestSparseFleetOnSmallCellsIsAllOversize).
	// Such deployments want a larger cell or -index rtree.
	maxSegmentCells = 64
	// maxCell clamps cell coordinates well inside int32, so that any float64
	// (±Inf and NaN included) converts with a defined result and cx++ in a
	// loop up to it cannot wrap. Positions beyond it share the edge cells;
	// entries are still tested by their own boxes.
	maxCell = 1 << 30
)

func newGridIndex(cell float64) *gridIndex {
	return &gridIndex{cell: cell, cells: make(map[cellKey][]entry)}
}

// keyOf maps a position to its cell.
func (g *gridIndex) keyOf(p geo.Point) cellKey {
	return cellKey{cx: cellCoord(p.X / g.cell), cy: cellCoord(p.Y / g.cell)}
}

func cellCoord(v float64) int32 {
	if !(v > -maxCell) { // also NaN
		return -maxCell
	}
	if v > maxCell {
		return maxCell
	}
	return int32(math.Floor(v))
}

// cellCount is the number of cells in the key range [lo, hi], as a float64
// because the full range squared exceeds int64.
func cellCount(lo, hi cellKey) float64 {
	return (float64(hi.cx) - float64(lo.cx) + 1) * (float64(hi.cy) - float64(lo.cy) + 1)
}

// insert registers one run under every cell its bounding box covers.
func (g *gridIndex) insert(id string, box geo.Rect, t0, t1 float64) {
	if box.IsEmpty() {
		return
	}
	e := entry{id: id, box: box, t0: t0, t1: t1}
	lo, hi := g.keyOf(box.Min), g.keyOf(box.Max)
	if cellCount(lo, hi) > maxSegmentCells {
		g.oversize = append(g.oversize, e)
		return
	}
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			k := cellKey{cx, cy}
			g.cells[k] = append(g.cells[k], e)
		}
	}
}

// query returns the set of object IDs with a run whose bounding box
// intersects rect and whose time interval overlaps [t0, t1].
func (g *gridIndex) query(rect geo.Rect, t0, t1 float64) map[string]bool {
	hits := make(map[string]bool)
	if rect.IsEmpty() || t1 < t0 {
		return hits
	}
	match := func(es []entry) {
		for _, e := range es {
			if !hits[e.id] && e.box.Intersects(rect) && overlaps(e.t0, e.t1, t0, t1) {
				hits[e.id] = true
			}
		}
	}
	match(g.oversize)
	lo, hi := g.keyOf(rect.Min), g.keyOf(rect.Max)
	if cellCount(lo, hi) > float64(len(g.cells)) {
		for k, es := range g.cells {
			if lo.cx <= k.cx && k.cx <= hi.cx && lo.cy <= k.cy && k.cy <= hi.cy {
				match(es)
			}
		}
		return hits
	}
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			match(g.cells[cellKey{cx, cy}])
		}
	}
	return hits
}

// rtreeIndex backs the store with the 3D R-tree of internal/rtree.
type rtreeIndex struct {
	tree *rtree.Tree
}

func newRTreeIndex() *rtreeIndex {
	return &rtreeIndex{tree: rtree.New()}
}

func (r *rtreeIndex) insert(id string, box geo.Rect, t0, t1 float64) {
	if box.IsEmpty() {
		return
	}
	r.tree.Insert(rtree.Box{Rect: box, T0: t0, T1: t1}, id)
}

func (r *rtreeIndex) query(rect geo.Rect, t0, t1 float64) map[string]bool {
	hits := make(map[string]bool)
	if rect.IsEmpty() || t1 < t0 {
		return hits
	}
	r.tree.Search(rtree.Box{Rect: rect, T0: t0, T1: t1}, func(id string) bool {
		hits[id] = true
		return true
	})
	return hits
}

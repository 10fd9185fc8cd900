package compress

import (
	"container/heap"

	"repro/internal/sed"
	"repro/internal/trajectory"
)

// Bottom-up algorithms (§2's third category): starting from the finest
// representation, repeatedly remove the retained point whose removal
// introduces the least error, until any further removal would exceed the
// threshold. Unlike the sequential algorithms, the merge order follows error
// rather than position ("the algorithm may not visit all data points in
// sequence").
//
// The removal cost of a point is the maximum distance of all original
// points hidden inside the span that its removal would create, so the final
// approximation carries the same per-point guarantee as the top-down
// algorithms: every discarded point lies within the threshold of its
// covering segment (perpendicular for BottomUp, synchronized for
// BottomUpTR).

// BottomUp is the bottom-up merge algorithm under the perpendicular
// distance.
type BottomUp struct {
	// Threshold is the perpendicular distance tolerance in metres.
	Threshold float64
}

// Name implements Algorithm.
func (a BottomUp) Name() string { return "BU" }

// Compress implements Algorithm.
func (a BottomUp) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	validateDistance("BottomUp", a.Threshold)
	return bottomUp(p, a.Threshold, maxPerpOverSpan)
}

// BottomUpTR is the bottom-up merge algorithm under the synchronized
// (time-ratio) distance — the bottom-up member of the paper's time-ratio
// class, completing the taxonomy of §2 for the spatiotemporal setting.
type BottomUpTR struct {
	// Threshold is the synchronized distance tolerance in metres.
	Threshold float64
}

// Name implements Algorithm.
func (a BottomUpTR) Name() string { return "BU-TR" }

// Compress implements Algorithm.
func (a BottomUpTR) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	validateDistance("BottomUpTR", a.Threshold)
	return bottomUp(p, a.Threshold, maxSyncOverSpan)
}

// removalCost prices the removal of the retained point between retained
// neighbours a and b: the maximum distance of ALL original points hidden in
// (a, b), which yields the per-point error guarantee.
type removalCost func(p trajectory.Trajectory, a, b int) float64

func maxPerpOverSpan(p trajectory.Trajectory, lo, hi int) float64 {
	line := segBetween(p, lo, hi)
	worst := 0.0
	for i := lo + 1; i < hi; i++ {
		if d := line.PerpDist(p[i].Pos()); d > worst {
			worst = d
		}
	}
	return worst
}

func maxSyncOverSpan(p trajectory.Trajectory, lo, hi int) float64 {
	worst := 0.0
	for i := lo + 1; i < hi; i++ {
		if d := sed.Distance(p[i], p[lo], p[hi]); d > worst {
			worst = d
		}
	}
	return worst
}

// mergeItem is a heap entry: the cost of removing retained point idx.
type mergeItem struct {
	cost  float64
	idx   int
	stamp int // lazy-deletion version; stale entries are skipped
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int           { return len(h) }
func (h mergeHeap) Less(i, j int) bool { return h[i].cost < h[j].cost }
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)        { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func bottomUp(p trajectory.Trajectory, threshold float64, cost removalCost) trajectory.Trajectory {
	if out, ok := small(p); ok {
		return out
	}
	n := p.Len()
	prev := make([]int, n)
	next := make([]int, n)
	stamp := make([]int, n)
	removed := make([]bool, n)
	for i := range prev {
		prev[i], next[i] = i-1, i+1
	}

	h := make(mergeHeap, 0, n-2)
	for i := 1; i < n-1; i++ {
		h = append(h, mergeItem{cost: cost(p, i-1, i+1), idx: i})
	}
	heap.Init(&h)

	for h.Len() > 0 {
		it := heap.Pop(&h).(mergeItem)
		if removed[it.idx] || it.stamp != stamp[it.idx] {
			continue // stale entry
		}
		if it.cost > threshold {
			break // cheapest removal already violates; done
		}
		// Remove it.idx: link neighbours and refresh their costs.
		a, b := prev[it.idx], next[it.idx]
		removed[it.idx] = true
		next[a], prev[b] = b, a
		if a > 0 {
			stamp[a]++
			heap.Push(&h, mergeItem{cost: cost(p, prev[a], next[a]), idx: a, stamp: stamp[a]})
		}
		if b < n-1 {
			stamp[b]++
			heap.Push(&h, mergeItem{cost: cost(p, prev[b], next[b]), idx: b, stamp: stamp[b]})
		}
	}

	out := make(trajectory.Trajectory, 0, 16)
	for i := 0; i < n; i++ {
		if !removed[i] {
			out = append(out, p[i])
		}
	}
	return out
}

package store

import (
	"errors"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/trajectory"
)

// ErrSealDisabled is returned by SealBefore when the store was built
// without a cold tier (Options.SealEps == 0).
var ErrSealDisabled = errors.New("store: sealing disabled (no SealEps configured)")

// SealEnabled reports whether the store has a cold sealed tier.
func (st *Store) SealEnabled() bool { return st.cold != nil }

// SealedBlocks returns the number of blocks in the cold tier (0 when
// sealing is disabled).
func (st *Store) SealedBlocks() int {
	if st.cold == nil {
		return 0
	}
	return st.cold.Blocks()
}

// SealedPoints returns the number of distinct samples in the cold tier
// (0 when sealing is disabled).
func (st *Store) SealedPoints() int {
	if st.cold == nil {
		return 0
	}
	return st.cold.Points()
}

// SealedBytes returns the cold tier's accounted compressed footprint
// (0 when sealing is disabled).
func (st *Store) SealedBytes() int64 {
	if st.cold == nil {
		return 0
	}
	return st.cold.CompressedBytes()
}

// SealBefore moves every retained sample older than t (exclusive) from the
// hot tier into the cold sealed tier — the explicit SEAL trigger, identical
// to EvictBefore with sealing enabled. The first surviving sample of each
// object is sealed too (as the chain's overlap head) so queries straddling
// the hot/cold boundary interpolate seamlessly; it stays hot as well, and
// the duplicate is suppressed at query time by exact comparison. Returns
// the number of samples removed from the hot tier; ErrSealDisabled when the
// store has no cold tier.
//
// Sealing never creates a durability dependency: the authoritative copy of
// sealed samples is the write-ahead log, and the cold tier is regenerable by
// replaying it.
func (st *Store) SealBefore(t float64) (int, error) {
	if st.cold == nil {
		return 0, ErrSealDisabled
	}
	return st.ageBefore(t, true)
}

// RangePoint is one point returned by RangePoints.
type RangePoint struct {
	ID string
	S  trajectory.Sample
}

// RangePoints returns every stored point inside the rectangle during
// [t0, t1], ordered by object ID then time — the union of hot retained
// samples (exact, strictly inside the rectangle) and, when sealing is
// enabled, cold sealed samples (reconstructed ones are evaluated against
// the rectangle expanded by their block's recorded error bound ε, so sealing
// introduces no false dismissals and reconstructions within ε outside the
// rectangle may be included; each block's exactly stored first and last
// samples are evaluated against the rectangle as given). The sample sealed
// as each chain's boundary overlap is reported once.
func (st *Store) RangePoints(rect geo.Rect, t0, t1 float64) []RangePoint {
	defer st.ins.querySeconds["points"].ObserveSince(time.Now())
	if rect.IsEmpty() || t1 < t0 {
		return nil
	}
	inside := func(s trajectory.Sample) bool { return s.T >= t0 && s.T <= t1 && rect.Contains(s.Pos()) }
	byID := make(map[string][]trajectory.Sample)
	for _, sh := range st.shards {
		sh.mu.RLock()
		for id, obj := range sh.objects {
			// retained and tail are what snapshot() would copy.
			for _, s := range obj.retained {
				if inside(s) {
					byID[id] = append(byID[id], s)
				}
			}
			if s, ok := obj.tail(); ok && inside(s) {
				byID[id] = append(byID[id], s)
			}
		}
		sh.mu.RUnlock()
	}
	if st.cold != nil {
		for _, h := range st.cold.RangePoints(rect, t0, t1) {
			byID[h.ID] = append(byID[h.ID], h.S)
		}
	}

	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []RangePoint
	for _, id := range ids {
		ss := byID[id]
		sort.Slice(ss, func(i, j int) bool { return ss[i].T < ss[j].T })
		for i, s := range ss {
			// The hot/cold boundary sample is stored exactly in both tiers;
			// suppress the duplicate by exact timestamp comparison.
			//lint:allow floatcmp duplicate of the identical stored sample, compared bit-exactly
			if i > 0 && s.T == ss[i-1].T {
				continue
			}
			out = append(out, RangePoint{ID: id, S: s})
		}
	}
	return out
}

// mergeIDs merges two sorted, duplicate-free ID slices into one.
func mergeIDs(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

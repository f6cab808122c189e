package plan

// Deep-copy and equality helpers for the incremental ECO engine
// (internal/eco). ECO replays recorded per-net state from a committed
// routing result; the copies keep the parent result immutable, and the
// equality predicates decide whether a net's recorded state is still
// exact on the edited circuit, and a Match says which parent record an
// edited net is compared with.

import "slices"

// CopyEdges returns an independent copy of a global route.
func CopyEdges(edges []TileEdge) []TileEdge {
	return append([]TileEdge(nil), edges...)
}

// segEqual compares every field of two global segments, including the
// track assignment and the end-connection flags.
func segEqual(a, b *GSeg) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.NetID == b.NetID && a.Dir == b.Dir && a.Panel == b.Panel &&
		a.Span == b.Span && a.Layer == b.Layer &&
		a.BadEnds == b.BadEnds && a.Ripped == b.Ripped &&
		a.LoCrossL == b.LoCrossL && a.LoCrossR == b.LoCrossR &&
		a.HiCrossL == b.HiCrossL && a.HiCrossR == b.HiCrossR &&
		slices.Equal(a.Tracks, b.Tracks)
}

// Equal reports whether two net plans are identical in every field the
// downstream stages read: route edges, pin tiles, and the fully
// assigned segments. Two nil plans are equal.
func (np *NetPlan) Equal(o *NetPlan) bool {
	if np == nil || o == nil {
		return np == o
	}
	return np.NetID == o.NetID && np.Level == o.Level && np.BadEnds == o.BadEnds &&
		slices.Equal(np.Edges, o.Edges) && slices.Equal(np.PinTiles, o.PinTiles) &&
		slices.EqualFunc(np.Segs, o.Segs, segEqual)
}

// Equal reports whether two detailed routes carry identical geometry:
// same routed flag, same wires in the same order, same vias.
func (r NetRoute) Equal(o NetRoute) bool {
	return r.NetID == o.NetID && r.Routed == o.Routed &&
		slices.Equal(r.Wires, o.Wires) && slices.Equal(r.Vias, o.Vias)
}

// Match pairs each net slot of an edited circuit with the slot of the
// parent result whose per-net records it may reuse: Match[i] is that
// parent slot, or -1 when slot i has no record to reuse and must route
// live. Both ECO engines and the DRC update read their parent records
// through one Match.
type Match []int

// Parent returns the parent slot that slot i reuses, or -1 when it
// reuses none, a slot past the end of m included.
func (m Match) Parent(i int) int {
	if i < len(m) {
		return m[i]
	}
	return -1
}

// Stale reports, for each of a parent's n slots, whether no slot of m
// reuses it: the slot's net was deleted, edited or (for a stage that
// unmatches them) replanned, so its recorded geometry is where the
// edited run can differ from the parent's.
func (m Match) Stale(n int) []bool {
	stale := make([]bool, n)
	for i := range stale {
		stale[i] = true
	}
	for _, p := range m {
		if p >= 0 {
			stale[p] = false
		}
	}
	return stale
}

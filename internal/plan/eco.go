package plan

// Deep-copy and equality helpers for the incremental ECO engine
// (internal/eco). ECO replays recorded per-net state from a committed
// routing result; the copies keep the parent result immutable, and the
// equality predicates decide whether a net's recorded state is still
// exact on the edited circuit.

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

package plan

// Deep-copy and equality helpers for the incremental ECO engine
// (internal/eco). ECO replays recorded per-net state from a committed
// routing result; the copies keep the parent result immutable, and the
// equality predicates decide whether a net's recorded state is still
// exact on the edited circuit.

// CopyEdges returns an independent copy of a global route.
func CopyEdges(edges []TileEdge) []TileEdge {
	if edges == nil {
		return nil
	}
	return append([]TileEdge(nil), edges...)
}

// EdgesEqual reports whether two global routes are identical, including
// edge order (the order the demand-commit loop and Segmentize consume).
func EdgesEqual(a, b []TileEdge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// segEqual compares every field of two global segments, including the
// track assignment and the end-connection flags.
func segEqual(a, b *GSeg) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.NetID != b.NetID || a.Dir != b.Dir || a.Panel != b.Panel ||
		a.Span != b.Span || a.Layer != b.Layer ||
		a.BadEnds != b.BadEnds || a.Ripped != b.Ripped ||
		a.LoCrossL != b.LoCrossL || a.LoCrossR != b.LoCrossR ||
		a.HiCrossL != b.HiCrossL || a.HiCrossR != b.HiCrossR {
		return false
	}
	if len(a.Tracks) != len(b.Tracks) {
		return false
	}
	for i := range a.Tracks {
		if a.Tracks[i] != b.Tracks[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two net plans are identical in every field the
// downstream stages read: route edges, pin tiles, and the fully
// assigned segments. Two nil plans are equal.
func (np *NetPlan) Equal(o *NetPlan) bool {
	if np == nil || o == nil {
		return np == o
	}
	if np.NetID != o.NetID || np.Level != o.Level || np.BadEnds != o.BadEnds {
		return false
	}
	if !EdgesEqual(np.Edges, o.Edges) {
		return false
	}
	if len(np.PinTiles) != len(o.PinTiles) {
		return false
	}
	for i := range np.PinTiles {
		if np.PinTiles[i] != o.PinTiles[i] {
			return false
		}
	}
	if len(np.Segs) != len(o.Segs) {
		return false
	}
	for i := range np.Segs {
		if !segEqual(np.Segs[i], o.Segs[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether two detailed routes carry identical geometry:
// same routed flag, same wires in the same order, same vias.
func (r NetRoute) Equal(o NetRoute) bool {
	if r.NetID != o.NetID || r.Routed != o.Routed ||
		len(r.Wires) != len(o.Wires) || len(r.Vias) != len(o.Vias) {
		return false
	}
	for i := range r.Wires {
		if r.Wires[i] != o.Wires[i] {
			return false
		}
	}
	for i := range r.Vias {
		if r.Vias[i] != o.Vias[i] {
			return false
		}
	}
	return true
}

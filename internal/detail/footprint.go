package detail

// The detailed router's side of the ECO footprints: marking the dense
// bitsets of the net being routed, and packing them (plan.Footprint)
// when the net is recorded. Only that one net has dense bitsets
// (Router's act, wact and sact); a finished run keeps none.

import (
	mbits "math/bits"

	"stitchroute/internal/geom"
	"stitchroute/internal/plan"
)

// foldAct ORs the search read-set tiles (sact), dilated by one tile in
// every direction, into act. A popped cell's expansion reads occupancy
// only at its face neighbours, so the dilated popped tiles cover every
// cell a search read; dilating at fold time (instead of marking
// neighbours per pop) keeps the astar hot loop to one bit-set per
// expansion. A replayed net inherits the parent's already folded
// footprint with an empty sact, so footprints do not grow by a tile per
// ECO generation.
func (r *Router) foldAct(act, sact []uint64) {
	for w, word := range sact {
		for word != 0 {
			b := w<<6 + mbits.TrailingZeros64(word)
			word &= word - 1
			tx, ty := b%r.atw, b/r.atw
			for dy := -1; dy <= 1; dy++ {
				ny := ty + dy
				if ny < 0 || ny >= r.ath {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					nx := tx + dx
					if nx < 0 || nx >= r.atw {
						continue
					}
					nb := ny*r.atw + nx
					act[nb>>6] |= 1 << (uint(nb) & 63)
				}
			}
		}
	}
}

// startRecording gives r the dense bitsets of a recording run and res
// its footprint lists, one per net slot.
func (r *Router) startRecording(res *Result, nets int) {
	n := r.awords
	buf := make([]uint64, 3*n)
	r.act, r.wact, r.sact = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	res.Acts = plan.Footprints{Words: n, Nets: make([]plan.Footprint, nets)}
	res.WActs = plan.Footprints{Words: n, Nets: make([]plan.Footprint, nets)}
}

// beginFootprint starts t's prepare-time footprints. Prepare touches
// occupancy only at each pin cell and its via escape directly above
// (same x, y), so it marks those tiles, not the whole multi-pin bounding
// box, which for a spread net would blanket the fabric and defeat the
// ECO overlap test. Materialize then marks the candidates.
func (r *Router) beginFootprint(t *routeTask) {
	if r.act == nil {
		return
	}
	clear(r.act)
	clear(r.wact)
	for _, pin := range t.net.Pins {
		pr := geom.Rect{X0: pin.X, Y0: pin.Y, X1: pin.X, Y1: pin.Y}
		r.markAct(r.act, pr)
		r.markAct(r.wact, pr)
	}
}

// packPrepared keeps t's prepare-time footprints, packed.
func (r *Router) packPrepared(t *routeTask) {
	if r.act != nil {
		t.act, t.wact = plan.PackPair(r.act, r.wact)
	}
}

// loadFootprint makes the dense bitsets t's prepare-time footprints
// with no popped tiles, ready for the routing loop's marks.
func (r *Router) loadFootprint(t *routeTask) {
	if r.act == nil {
		return
	}
	clear(r.act)
	clear(r.wact)
	clear(r.sact)
	t.act.OrInto(r.act)
	t.wact.OrInto(r.wact)
}

// recordFootprint folds the popped tiles into the activity bitset and
// records t's final footprints, packed, in res.
func (r *Router) recordFootprint(t *routeTask, res *Result) {
	if r.act == nil {
		return
	}
	r.foldAct(r.act, r.sact)
	res.Acts.Nets[t.slot], res.WActs.Nets[t.slot] = plan.PackPair(r.act, r.wact)
}

// markAct sets the footprint bits covered by rc (clamped to the fabric).
// A run that records nothing has no bitsets; nil is a no-op.
func (r *Router) markAct(bits []uint64, rc geom.Rect) {
	if bits == nil {
		return
	}
	x0, y0, x1, y1 := rc.X0, rc.Y0, rc.X1, rc.Y1
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 >= r.X {
		x1 = r.X - 1
	}
	if y1 >= r.Y {
		y1 = r.Y - 1
	}
	if x0 > x1 || y0 > y1 {
		return
	}
	for ty := y0 / actTile; ty <= y1/actTile; ty++ {
		base := ty * r.atw
		for tx := x0 / actTile; tx <= x1/actTile; tx++ {
			b := base + tx
			bits[b>>6] |= 1 << (uint(b) & 63)
		}
	}
}

package detail

import (
	mbits "math/bits"

	"stitchroute/internal/geom"
)

// footprint is one net's actTile bucket bitset (memo.go) stored packed:
// its nonzero words, as (word index, word) pairs in ascending index
// order. Footprints are sparse — 4–13% of their words are nonzero on the
// benchmark circuits — so a net's footprint is packed as soon as it is
// recorded: only the one net being routed has dense bitsets (Router's
// act, wact and sact), and a finished run keeps none.
type footprint []wordPair

type wordPair struct {
	word uint64
	idx  int32
}

// Footprints is a run's per-net footprints, indexed like Result.Routes,
// all packed from bitsets of one length.
type Footprints struct {
	words int         // length of the dense bitsets, in words
	nets  []footprint // per net slot
}

// Len returns the number of recorded footprints.
func (fp Footprints) Len() int { return len(fp.nets) }

// orInto ORs the footprint into the dense bitset dst.
func (f footprint) orInto(dst []uint64) {
	for _, p := range f {
		dst[p.idx] |= p.word
	}
}

// intersects reports whether the footprint and the dense bitset b share
// a set bit.
func (f footprint) intersects(b []uint64) bool {
	for _, p := range f {
		if p.word&b[p.idx] != 0 {
			return true
		}
	}
	return false
}

// packPair packs the dense bitsets a and b into one exact-size
// allocation shared by both footprints: the words are copied once, and
// a net's two footprints cost one allocation.
func packPair(a, b []uint64) (footprint, footprint) {
	na, nb := nonzero(a), nonzero(b)
	if na+nb == 0 {
		return nil, nil
	}
	buf := make([]wordPair, 0, na+nb)
	buf = appendPacked(buf, a)
	buf = appendPacked(buf, b)
	return footprint(buf[:na:na]), footprint(buf[na:])
}

func nonzero(set []uint64) int {
	n := 0
	for _, w := range set {
		if w != 0 {
			n++
		}
	}
	return n
}

func appendPacked(dst []wordPair, set []uint64) []wordPair {
	for i, w := range set {
		if w != 0 {
			dst = append(dst, wordPair{word: w, idx: int32(i)})
		}
	}
	return dst
}

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
	res.Acts = Footprints{words: n, nets: make([]footprint, nets)}
	res.WActs = Footprints{words: n, nets: make([]footprint, nets)}
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
		t.act, t.wact = packPair(r.act, r.wact)
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
	t.act.orInto(r.act)
	t.wact.orInto(r.wact)
}

// recordFootprint folds the popped tiles into the activity bitset and
// records t's final footprints, packed, in res.
func (r *Router) recordFootprint(t *routeTask, res *Result) {
	if r.act == nil {
		return
	}
	r.foldAct(r.act, r.sact)
	res.Acts.nets[t.slot], res.WActs.nets[t.slot] = packPair(r.act, r.wact)
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

package detail

// Memoized detailed routing for the incremental ECO engine.
//
// RunMemo re-runs the detailed router on an edited circuit against a
// previous run's recording. The preparation phase (pin + escape
// reservation, planned-wire materialization, stitch-aware ordering) is
// executed for real — it is cheap, linear work — and only the per-net
// connection searches are memoized: a net whose plan is unchanged, whose
// parent attempt succeeded, and whose recorded footprint misses the
// dirty region replays the parent's final geometry without searching.
//
// Footprints are bitsets over the fabric divided into actTile × actTile
// buckets, not bounding boxes: a long L-shaped route plus a handful of
// localized retry windows covers a sliver of the fabric but a huge bbox,
// and bbox-based dirty tests were measured to kill most of the reuse on
// the bundled benchmarks.
//
// Soundness. A net's processing reads and writes occupancy cells only
// inside its activity footprint (pin bbox ∪ materialize candidates ∪
// search windows — recorded in detail.go/astar.go), and changes cells
// only inside its write footprint (pin bbox ∪ accepted candidates ∪
// committed wires, including ones a later rip-up cleared). The dirty
// bitset covers, before any net's clean check, every cell where the
// edited run's occupancy can differ from the parent run's: the parent
// write footprints of all edited/deleted/replan nets, the post-prepare
// write footprints of those nets' new geometry, and — grown stickily as
// the loop runs — the write footprint of every net that routed live and
// diverged. Reads never enter the dirty region: a net's searches depend
// on what it reads, but only its writes can change what other nets
// read. A clean intersection (of the net's parent activity ∪ current
// footprint against the dirty bitset) therefore certifies the net's
// searches would read byte-identical occupancy and commit
// byte-identical geometry, so stamping the recorded geometry reproduces
// the cold run's state exactly; by induction the whole run is
// byte-identical to RunContext on the edited circuit.

import (
	"context"
	mbits "math/bits"
	"time"

	"stitchroute/internal/geom"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// timeNow is indirected for the DebugMemo timing only.
var timeNow = time.Now

// actTile is the footprint-bitset bucket edge in tracks. 8 keeps the
// bitsets a few dozen words on the bundled benchmarks while staying fine
// enough that thin routes do not blanket their bounding box.
const (
	actTile      = 8
	actTileShift = 3 // log2(actTile), for the per-pop marking in astar
)

// markAct sets the footprint bits covered by rc (clamped to the fabric).
// Tasks built outside prepare (tests) carry no bitsets; nil is a no-op.
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

// foldAct ORs the search read-set tiles (sact), dilated by one tile in
// every direction, into act and returns it. A popped cell's expansion
// reads occupancy only at its face neighbours, so the dilated popped
// tiles cover every cell a search read; dilating at fold time (instead
// of marking neighbours per pop) keeps the astar hot loop to one
// bit-set per expansion. Replayed nets inherit the parent's already
// folded footprint with an empty sact, so footprints do not grow by a
// tile per ECO generation.
func (r *Router) foldAct(act, sact []uint64) []uint64 {
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
	return act
}

func orBits(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

func segsEqual(a, b []geom.Segment) bool {
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

func cellsEqual(a, b []Cell) bool {
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

func bitsIntersect(a, b []uint64) bool {
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// Memo is a previous run's recording, keyed by net ID (slot numbers
// shift when nets are added or deleted).
type Memo struct {
	// Dirty marks nets that must route live regardless of their
	// footprints AND whose write footprints seed the dirty region
	// unconditionally: edited nets and nets whose plan changed (their
	// ordering key — level, bad ends, HPWL — may have changed, so their
	// commit timing relative to other nets can shift even if their
	// geometry would not), plus deleted nets (their absence changes what
	// everyone reads in their footprint; they have no task, but their
	// parent write footprint still seeds the bitset).
	//
	// Parent-failed nets are NOT dirty: the ordering sort is stable, so
	// a net with an unchanged key keeps its position relative to every
	// other unchanged-key net, and a re-search that reproduces the
	// parent's final state (routes + retained pin reservations) is
	// invisible to everyone else. They replay like routed nets when
	// their reads are clean (an empty-geometry replay), and when they do
	// re-search they grow the dirty region only on divergence.
	Dirty map[int]bool
	// Parent per-net records (footprints are actTile bucket bitsets).
	Acts      map[int][]uint64
	WActs     map[int][]uint64
	Routes    map[int]plan.NetRoute
	Ripped    map[int]bool
	FreedPins map[int][]Cell
	MatWires  map[int][]geom.Segment
}

// DebugMemo, when non-nil, collects replay-decision counts (test-only).
var DebugMemo map[string]int

// canReplay verifies every cell of the parent's final geometry is free
// or already owned by the net. The soundness argument says this cannot
// fail for a clean net; it is a cheap O(route cells) guard that turns a
// reasoning bug into a live reroute instead of a corrupted grid.
func (r *Router) canReplay(t *routeTask, pr plan.NetRoute) bool {
	for _, w := range pr.Wires {
		if !r.wireFree(w, int32(t.net.ID)) {
			return false
		}
	}
	return true
}

// replayNet reproduces the parent run's net effect on the grid without
// searching: clear the materialized candidates, stamp the recorded
// final geometry, restore the pin reservations the parent kept (a
// rip-up's clearNet can release a pin cell that a materialized wire
// covered; FreedPins records which reservations ended up released), and
// release unused escapes exactly like the real path does.
func (r *Router) replayNet(t *routeTask, pr plan.NetRoute, pw []uint64, freed []Cell) {
	id := int32(t.net.ID)
	r.clearNet(t)
	t.wires = append([]geom.Segment(nil), pr.Wires...)
	t.vias = append([]plan.Via(nil), pr.Vias...)
	for _, w := range t.wires {
		r.fillWire(w, id+1)
	}
	for _, p := range t.net.Pins {
		c := Cell{X: p.X, Y: p.Y, L: p.Layer - 1}
		wasFreed := false
		for _, f := range freed {
			if f == c {
				wasFreed = true
				break
			}
		}
		if !wasFreed {
			if i := r.idx(c.X, c.Y, c.L); r.occ[i] == 0 {
				r.occ[i] = id + 1
			}
		}
	}
	// Freed pin reservations must end up free even when no current wire
	// covers them: in the parent run the release can come from a
	// transient committed path that the final clearNet wiped — geometry
	// the recording does not keep. A freed pin is never covered by a
	// final wire (recordFreedPins would not have listed it), so zeroing
	// here reproduces the parent's end state exactly.
	for _, f := range freed {
		if i := r.idx(f.X, f.Y, f.L); r.occ[i] == id+1 {
			r.occ[i] = 0
		}
	}
	r.releaseEscapes(t)
	t.freedPins = append(t.freedPins[:0], freed...)
	orBits(t.wact, pw)
}

// RunMemo is RunContext against a previous run's recording; see the
// package comment above for the replay rule and its soundness. The
// second return is the number of nets replayed without a search.
func (r *Router) RunMemo(ctx context.Context, c *netlist.Circuit, plans []*plan.NetPlan, m *Memo) (*Result, int, error) {
	if r.sc == nil {
		r.borrow()
		defer r.giveBack()
	}
	res, nets, order, record := r.prepare(c, plans)

	// Dirty bitset: the parent write footprints of every dirty net
	// (deleted nets included — the map is keyed by ID, not slot) plus
	// the post-prepare write footprint of every dirty net's new
	// geometry — both in place before the first clean check.
	dirty := make([]uint64, r.awords)
	for id := range m.Dirty {
		if pw, ok := m.WActs[id]; ok && len(pw) == r.awords {
			orBits(dirty, pw)
		}
	}
	for _, t := range nets {
		if m.Dirty[t.net.ID] {
			orBits(dirty, t.wact)
		}
	}
	// Prepare-phase divergence: materialize's conflict check reads other
	// nets' cells, so an edit can flip a candidate's verdict — the net
	// then writes (or stops writing) cells during prepare, before any
	// clean check runs. Comparing each net's post-prepare candidate set
	// against the parent's catches exactly the nets whose prepare
	// writes changed; seeding both their parent and current write
	// footprints makes those writes dirty from the start (the net also
	// routes live — its pin bbox sits in both footprints). Detection is
	// outcome-based, so no fixpoint is needed: a flipped verdict further
	// down the slot order shows up in that net's own comparison.
	for _, t := range nets {
		id := t.net.ID
		if m.Dirty[id] {
			continue
		}
		if pmw, ok := m.MatWires[id]; !ok || !segsEqual(pmw, t.wires) {
			if DebugMemo != nil {
				DebugMemo["matdiverge"]++
			}
			if pw := m.WActs[id]; len(pw) == r.awords {
				orBits(dirty, pw)
			}
			orBits(dirty, t.wact)
		}
	}

	reused := 0
	for oi, t := range order {
		if err := ctx.Err(); err != nil {
			for _, rest := range order[oi:] {
				record(rest, false)
			}
			r.finish(res, nets)
			return res, reused, err
		}
		id := t.net.ID
		pr, hasRec := m.Routes[id]
		pa := m.Acts[id]
		pw := m.WActs[id]
		hasBits := len(pa) == r.awords && len(pw) == r.awords
		if DebugMemo != nil {
			switch {
			case m.Dirty[id]:
				DebugMemo["dirty"]++
			case !hasRec || !hasBits:
				DebugMemo["norec"]++
			case bitsIntersect(dirty, pa) || bitsIntersect(dirty, t.act):
				DebugMemo["overlap"]++
			case !r.canReplay(t, pr):
				DebugMemo["canreplay"]++
				DebugMemo["canreplay-net"] = id
			default:
				DebugMemo["clean"]++
			}
		}
		if !m.Dirty[id] && hasRec && hasBits &&
			!bitsIntersect(dirty, pa) && !bitsIntersect(dirty, t.act) &&
			r.canReplay(t, pr) {
			// Failed parents replay too: empty geometry, cleared
			// candidates, released reservations — the same end state a
			// live re-search would reproduce, minus the search.
			r.replayNet(t, pr, pw, m.FreedPins[id])
			orBits(t.act, pa)
			if m.Ripped[id] {
				res.Ripped++
				t.ripped = true
			}
			record(t, pr.Routed)
			reused++
			continue
		}
		if DebugMemo != nil {
			t0 := timeNow()
			r.routeOne(t, nets, res, record)
			key := "live-ms-routed"
			if !pr.Routed {
				key = "live-ms-failed"
			}
			DebugMemo[key] += int(timeNow().Sub(t0).Milliseconds())
		} else {
			r.routeOne(t, nets, res, record)
		}
		// Divergence: dirty nets grow the region unconditionally (their
		// commit timing may have moved); a key-stable net that ended in
		// its recorded final state — same routes AND same retained pin
		// reservations — changed no cell anyone else can observe. Only
		// write footprints grow the region: a diverged net's reads
		// cannot invalidate another net's state.
		if m.Dirty[id] || !hasRec || !pr.Equal(res.Routes[t.slot]) ||
			!cellsEqual(m.FreedPins[id], t.freedPins) {
			if DebugMemo != nil && !m.Dirty[id] {
				DebugMemo["diverged"]++
			}
			if len(pw) == r.awords {
				orBits(dirty, pw)
			}
			orBits(dirty, t.wact)
		}
	}
	r.finish(res, nets)
	return res, reused, nil
}

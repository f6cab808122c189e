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
// localized searches covers a sliver of the fabric but a huge bbox,
// and bbox-based dirty tests were measured to kill most of the reuse on
// the bundled benchmarks.
//
// Soundness. A net's processing reads and writes occupancy cells only
// inside its activity footprint (pin cells ∪ materialize candidates ∪
// the tiles of every cell its searches popped, dilated by one tile —
// marked in detail.go and astar.go, folded and packed in footprint.go),
// and changes cells only inside its write footprint (pin cells ∪
// accepted candidates ∪ committed wires, including ones a later rip-up
// cleared). The dirty bitset covers, before any net's clean check,
// every cell where the edited run's occupancy can differ from the
// parent run's: the parent write footprints of all edited/deleted/replan
// nets, the post-prepare write footprints of those nets' new geometry,
// and — grown stickily as the loop runs — the write footprint of every
// net that routed live and diverged. Reads never enter the dirty region:
// a net's searches depend on what it reads, but only its writes can
// change what other nets read. A clean intersection (of the net's parent
// activity ∪ current footprint against the dirty bitset) therefore
// certifies the net's searches would read byte-identical occupancy and
// commit byte-identical geometry, so stamping the recorded geometry
// reproduces the cold run's state exactly; by induction the whole run is
// byte-identical to a cold run on the edited circuit. A cold run
// (RunContext) is this same pass with no parent recording, in which
// every net routes live: both run prepare and then loop, so they cannot
// drift apart.

import (
	"context"
	"slices"

	"stitchroute/internal/geom"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// actTile is the footprint-bitset bucket edge in tracks. 8 keeps the
// bitsets a few dozen words on the bundled benchmarks while staying fine
// enough that thin routes do not blanket their bounding box.
const (
	actTile      = 8
	actTileShift = 3 // log2(actTile), for the per-pop marking in astar
)

// Memo is a previous run's recording. Nets are matched by ID, through
// Slot: slot numbers shift when nets are added or deleted.
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
	// Slot maps each parent net ID to its slot in the parent's per-net
	// records below, which are the parent Result's, indexed like its
	// Routes.
	Slot   map[int]int
	Routes []plan.NetRoute
	Recording
}

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
func (r *Router) replayNet(t *routeTask, pr plan.NetRoute, freed []Cell) {
	id := int32(t.net.ID)
	r.clearNet(t)
	t.wires = append([]geom.Segment(nil), pr.Wires...)
	t.vias = append([]plan.Via(nil), pr.Vias...)
	r.stampRecorded(t.net, t.wires, freed)
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
}

// stampRecorded writes a net's recorded final geometry into the grid: its
// wires, then the pin reservations the recorded run kept, which are
// every free pin cell not in freed. Replay (replayNet) and a patch's
// kept nets (RunPatch) both stamp through it.
func (r *Router) stampRecorded(net *netlist.Net, wires []geom.Segment, freed []Cell) {
	id := int32(net.ID) + 1
	for _, w := range wires {
		r.fillWire(w, id)
	}
	for _, p := range net.Pins {
		c := Cell{X: p.X, Y: p.Y, L: p.Layer - 1}
		if slices.Contains(freed, c) {
			continue
		}
		if i := r.idx(c.X, c.Y, c.L); r.occ[i] == 0 {
			r.occ[i] = id
		}
	}
}

// RunMemo is RunContext against a previous run's recording; see the
// package comment above for the replay rule and its soundness. The
// second return is the number of nets replayed without a search.
func (r *Router) RunMemo(ctx context.Context, c *netlist.Circuit, plans []*plan.NetPlan, m *Memo) (*Result, int, error) {
	if r.sc == nil {
		r.borrow()
		// The arena goes back on a panic too (a server job recovers
		// one), and is sound to reuse: bind clears occ, and every search
		// restamps its nodes and resets its heap, so nothing a run cut
		// short left behind is read. RunPatch relies on the same.
		defer r.giveBack()
	}
	return r.runMemo(ctx, c, plans, m)
}

// runMemo runs a recording run on the bound scratch, replaying from m
// where it can. A nil m is a cold run: it builds no dirty region and
// routes every net live through the same loop.
func (r *Router) runMemo(ctx context.Context, c *netlist.Circuit, plans []*plan.NetPlan, m *Memo) (*Result, int, error) {
	res, nets, order := r.prepare(c, plans)
	var dirty []uint64
	if m != nil && m.Acts.Words == r.awords && m.WActs.Words == r.awords {
		dirty = m.seedDirty(nets, r.awords)
	} else {
		m = nil // no recording, or footprints of another fabric
	}
	reused, err := r.loop(ctx, res, order, m, dirty)
	r.finish(res, nets)
	return res, reused, err
}

// seedDirty returns the dirty bitset as it stands before the first clean
// check: the parent write footprints of every dirty net (deleted nets
// included — the map is keyed by ID, not slot) plus the post-prepare
// write footprint of every dirty net's new geometry. The packed
// footprints are read as they are: their words are ORed into and
// tested against this one dense bitset.
func (m *Memo) seedDirty(nets []*routeTask, words int) []uint64 {
	dirty := make([]uint64, words)
	for id := range m.Dirty {
		if ps, ok := m.Slot[id]; ok {
			m.WActs.Nets[ps].OrInto(dirty)
		}
	}
	for _, t := range nets {
		if m.Dirty[t.net.ID] {
			t.wact.OrInto(dirty)
		}
	}
	// Prepare-phase divergence: materialize's conflict check reads other
	// nets' cells, so an edit can flip a candidate's verdict — the net
	// then writes (or stops writing) cells during prepare, before any
	// clean check runs. Comparing each net's post-prepare candidate set
	// against the parent's catches exactly the nets whose prepare
	// writes changed; seeding both their parent and current write
	// footprints makes those writes dirty from the start (the net also
	// routes live — its pin cells sit in both footprints). Detection is
	// outcome-based, so no fixpoint is needed: a flipped verdict further
	// down the slot order shows up in that net's own comparison.
	for _, t := range nets {
		id := t.net.ID
		if m.Dirty[id] {
			continue
		}
		ps, ok := m.Slot[id]
		if !ok || !slices.Equal(m.MatWires[ps], t.wires) {
			if ok {
				m.WActs.Nets[ps].OrInto(dirty)
			}
			t.wact.OrInto(dirty)
		}
	}
	return dirty
}

// loop is the per-net routing loop every run shares (RunContext, RunMemo
// and RunPatch): it routes the tasks in order, checking ctx at the top
// of each net. With a memo, a net whose recorded footprints miss the
// dirty bitset replays its recorded geometry instead of searching, and
// a net that routes live and diverges grows the bitset. A cancelled run
// records the nets not reached as unrouted and returns ctx's error. The
// first return is the number of nets replayed.
func (r *Router) loop(ctx context.Context, res *Result, order []*routeTask, m *Memo, dirty []uint64) (int, error) {
	reused := 0
	for oi, t := range order {
		if err := ctx.Err(); err != nil {
			for _, rest := range order[oi:] {
				res.record(rest, false)
			}
			return reused, err
		}
		if m == nil {
			r.routeOne(t, res)
			continue
		}
		id := t.net.ID
		ps, hasRec := m.Slot[id]
		if !m.Dirty[id] && hasRec &&
			!m.Acts.Nets[ps].Intersects(dirty) && !t.act.Intersects(dirty) &&
			r.canReplay(t, m.Routes[ps]) {
			// Failed parents replay too: empty geometry, cleared
			// candidates, released reservations — the same end state a
			// live re-search would reproduce, minus the search. The
			// net's footprints are its prepare-time ones plus the
			// parent's.
			pr := m.Routes[ps]
			r.loadFootprint(t)
			r.replayNet(t, pr, m.FreedPins[ps])
			m.Acts.Nets[ps].OrInto(r.act)
			m.WActs.Nets[ps].OrInto(r.wact)
			if m.NetRipped[ps] {
				res.Ripped++
				t.ripped = true
			}
			res.record(t, pr.Routed)
			r.recordFootprint(t, res)
			reused++
			continue
		}
		r.routeOne(t, res)
		// Divergence: dirty nets grow the region unconditionally (their
		// commit timing may have moved); a key-stable net that ended in
		// its recorded final state — same routes AND same retained pin
		// reservations — changed no cell anyone else can observe. Only
		// write footprints grow the region: a diverged net's reads
		// cannot invalidate another net's state.
		if m.Dirty[id] || !hasRec || !m.Routes[ps].Equal(res.Routes[t.slot]) ||
			!slices.Equal(m.FreedPins[ps], t.freedPins) {
			if hasRec {
				m.WActs.Nets[ps].OrInto(dirty)
			}
			res.WActs.Nets[t.slot].OrInto(dirty)
		}
	}
	return reused, nil
}

package global

import (
	"context"
	"slices"

	"stitchroute/internal/mlevel"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// ECO trace: the global router records, for every net of the first
// bottom-up pass (RouteAll), the set of tiles its A* searches popped and
// the route it committed. The incremental engine (internal/eco) replays
// a recorded route on an edited circuit whenever the net is matched to
// its parent slot (see plan.Match) and its recorded read-set is
// disjoint from the dirty-tile set — the tiles where edge or line-end
// demand can differ from the parent run.
//
// Soundness of the read-set: the search reads graph state only through
// edgeCost and endCost. edgeCost is evaluated for edges incident to a
// popped tile, and endCost only ever at the popped tile itself (both
// line-end charges in astar use the popped tile's index), so every
// demand or history cell the search can observe belongs to a popped
// tile or an edge with a popped endpoint. The dirty set marks *both*
// endpoints of every differing route edge — the recorded routes of the
// stale parent slots (deleted and edited nets) up front, then the old
// and new routes of every net that routes live and diverges — and every
// line-end tile of a route is an endpoint of one of its vertical edges,
// so a clean intersection certifies the search would see byte-identical
// costs and, with the deterministic tie-breaks, pop the same states and
// return the same route. A cold pass (RouteAllContext) is RouteAllMemo
// with no previous trace, so replay and cold run one loop.

// NetTrace is one net's record of the first pass.
type NetTrace struct {
	// ReadSet is a bitset over tiles (index ty*tw+tx), packed: every
	// tile any of the net's A* searches popped.
	ReadSet plan.Footprint
	// Edges is the committed route, post-dedupe, in commit order.
	Edges []plan.TileEdge
}

// Trace is the whole first pass's record, one NetTrace per net slot of
// the routed circuit.
type Trace struct {
	TW, TH int
	Nets   []NetTrace
}

// Trace returns the record of the last RouteAll pass, or nil before
// the first one.
func (r *Router) Trace() *Trace { return r.trace }

// markEdges sets the dirty bit of both endpoints of every edge.
func (r *Router) markEdges(d []uint64, edges []plan.TileEdge) {
	for _, e := range edges {
		a := e.A.TY*r.tw + e.A.TX
		b := e.B.TY*r.tw + e.B.TX
		d[a>>6] |= 1 << (uint(a) & 63)
		d[b>>6] |= 1 << (uint(b) & 63)
	}
}

// RouteAllMemo routes every net bottom-up, as RouteAll does, and records
// the pass's trace, replaying what it can from a previous run's trace:
// a net matched to a parent slot whose recorded read-set misses every
// dirty tile replays that slot's recorded route; everything else routes
// live. The old routes of the stale parent slots are seeded up front,
// and routes that change grow the dirty-tile set, so later nets observe
// the divergence. The demand state after every net equals a cold run's
// on the edited circuit, so the returned plans are byte-identical to a
// pass with no previous trace, which is RouteAllContext: the two share
// this loop.
//
// prev must come from a router over the same fabric with the same
// config (a trace of another fabric is ignored); from must leave every
// net added, deleted or edited unmatched (their schedule position may
// have moved, so their demand-commit *timing* differs even when the
// route does not). The second return is the number of nets replayed
// without a search.
func (r *Router) RouteAllMemo(ctx context.Context, c *netlist.Circuit, prev *Trace, from plan.Match) ([]*plan.NetPlan, int, error) {
	words := (r.tw*r.th + 63) / 64
	var dirtyTiles []uint64
	if prev != nil && prev.TW == r.tw && prev.TH == r.th {
		dirtyTiles = make([]uint64, words)
		// Seed: the old routes of every deleted or edited net. Added
		// nets have no old route; their new one is marked when they
		// route live below.
		for p, stale := range from.Stale(len(prev.Nets)) {
			if stale {
				r.markEdges(dirtyTiles, prev.Nets[p].Edges)
			}
		}
	} else {
		prev = nil
	}
	r.trace = &Trace{TW: r.tw, TH: r.th, Nets: make([]NetTrace, len(c.Nets))}
	plans := make([]*plan.NetPlan, len(c.Nets))
	// rec is the dense read-set of the net routing live: its searches
	// mark the tiles they pop, and it is packed into the net's record
	// and cleared for the next net.
	rec := make([]uint64, words)
	reused := 0
	for i, slot := range mlevel.Schedule(c) {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return plans, reused, err
			}
		}
		net := c.Nets[slot]
		var nt *NetTrace
		if p := from.Parent(slot); prev != nil && p >= 0 {
			nt = &prev.Nets[p]
		}
		if nt != nil && !nt.ReadSet.Intersects(dirtyTiles) {
			plans[slot] = r.planNet(net, nt)
			r.trace.Nets[slot] = *nt // records are immutable; share
			reused++
			continue
		}
		r.rec = rec
		np := r.RouteNet(net)
		r.rec = nil
		r.trace.Nets[slot] = NetTrace{ReadSet: plan.Pack(rec), Edges: plan.CopyEdges(np.Edges)}
		clear(rec)
		// Divergence: a matched net whose live route equals its record
		// changed nothing. An unmatched net's old route, if it had one,
		// was seeded; its new route is marked unconditionally — its
		// commit timing may have moved.
		if prev != nil && (nt == nil || !slices.Equal(nt.Edges, np.Edges)) {
			if nt != nil {
				r.markEdges(dirtyTiles, nt.Edges)
			}
			r.markEdges(dirtyTiles, np.Edges)
		}
		plans[slot] = np
	}
	return plans, reused, nil
}

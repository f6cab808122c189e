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
// a recorded route on an edited circuit whenever the net is unedited and
// its recorded read-set is disjoint from the dirty-tile set — the tiles
// where edge or line-end demand can differ from the parent run.
//
// Soundness of the read-set: the search reads graph state only through
// edgeCost and endCost. edgeCost is evaluated for edges incident to a
// popped tile, and endCost only ever at the popped tile itself (both
// line-end charges in astar use the popped tile's index), so every
// demand or history cell the search can observe belongs to a popped
// tile or an edge with a popped endpoint. The dirty set marks *both*
// endpoints of every differing route edge — and every line-end tile of
// a route is an endpoint of one of its vertical edges — so a clean
// intersection certifies the search would see byte-identical costs and,
// with the deterministic tie-breaks, pop the same states and return the
// same route. A cold pass (RouteAllContext) is RouteAllMemo with no
// previous trace, so replay and cold run one loop.

// NetTrace is one net's record of the first pass.
type NetTrace struct {
	// ReadSet is a bitset over tiles (index ty*tw+tx), packed: every
	// tile any of the net's A* searches popped.
	ReadSet plan.Footprint
	// Edges is the committed route, post-dedupe, in commit order.
	Edges []plan.TileEdge
}

// Trace is the whole first pass's record, keyed by net ID.
type Trace struct {
	TW, TH int
	Nets   map[int]*NetTrace
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
// nets that are not in dirty and whose recorded read-set misses every
// dirty tile replay their recorded route; everything else routes live.
// Routes that change (and the old routes of dirty nets, seeded up front)
// grow the dirty-tile set, so later nets observe the divergence. The
// demand state after every net equals a cold run's on the edited
// circuit, so the returned plans are byte-identical to a pass with no
// previous trace, which is RouteAllContext: the two share this loop.
//
// prev must come from a router over the same fabric with the same
// config (a trace of another fabric is ignored); dirty must contain
// every net ID added, deleted, or edited (their schedule position may
// have moved, so their demand-commit *timing* differs even when the
// route does not). The second return is the number of nets replayed
// without a search.
func (r *Router) RouteAllMemo(ctx context.Context, c *netlist.Circuit, prev *Trace, dirty map[int]bool) ([]*plan.NetPlan, int, error) {
	words := (r.tw*r.th + 63) / 64
	var dirtyTiles []uint64
	if prev != nil && prev.TW == r.tw && prev.TH == r.th {
		dirtyTiles = make([]uint64, words)
		// Seed: the old routes of every edited/deleted net. Added nets
		// have no old route; their new one is marked when they route
		// live below.
		for id := range dirty {
			if nt := prev.Nets[id]; nt != nil {
				r.markEdges(dirtyTiles, nt.Edges)
			}
		}
	} else {
		prev = nil
	}
	r.trace = &Trace{TW: r.tw, TH: r.th, Nets: make(map[int]*NetTrace, len(c.Nets))}
	plans := make([]*plan.NetPlan, len(c.Nets))
	byID := make(map[int]int, len(c.Nets))
	for i, n := range c.Nets {
		byID[n.ID] = i
	}
	// rec is the dense read-set of the net routing live: its searches
	// mark the tiles they pop, and it is packed into the net's record
	// and cleared for the next net.
	rec := make([]uint64, words)
	reused := 0
	for i, e := range mlevel.Schedule(c) {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return plans, reused, err
			}
		}
		id := e.Net.ID
		var nt *NetTrace
		if prev != nil {
			nt = prev.Nets[id]
		}
		if nt != nil && !dirty[id] && !nt.ReadSet.Intersects(dirtyTiles) {
			plans[byID[id]] = r.planNet(e.Net, nt)
			r.trace.Nets[id] = nt // records are immutable; share
			reused++
			continue
		}
		r.rec = rec
		np := r.RouteNet(e.Net)
		r.rec = nil
		r.trace.Nets[id] = &NetTrace{ReadSet: plan.Pack(rec), Edges: plan.CopyEdges(np.Edges)}
		clear(rec)
		// Divergence: an unedited net whose live route matches its record
		// changed nothing. Dirty (edited) nets mark old + new
		// unconditionally — their commit timing may have moved.
		if prev != nil && (dirty[id] || nt == nil || !slices.Equal(nt.Edges, np.Edges)) {
			if nt != nil {
				r.markEdges(dirtyTiles, nt.Edges)
			}
			r.markEdges(dirtyTiles, np.Edges)
		}
		plans[byID[id]] = np
	}
	return plans, reused, nil
}

// Package global implements the stitch-aware global router (§III-A).
//
// The routing plane is divided into global tiles and modeled as a graph:
// vertices are tiles, edges connect adjacent tiles. MEBL resource
// estimation differs from conventional routing in two ways: the capacity
// of a vertical tile boundary excludes the track occupied by the stitching
// line, and each tile carries a *vertex* capacity — the number of vertical
// tracks outside stitch-unfriendly regions — charged by the line ends of
// vertical segments, since a line end inside a SUR can become a short
// polygon on the attached horizontal wire.
//
// Costs follow eqs. (1)–(3):
//
//	ψ_e(i) = 2^(d_e(i)/c_e(i)) − 1
//	ψ_v(j) = 2^(d_v(j)/c_v(j)) − 1
//	Ψ(P)  = Σ ψ_e + Σ ψ_v
//
// The baseline mode (an NTUgr-like conventional congestion router) uses
// full capacities and no vertex cost.
package global

import (
	"context"
	"math"
	"sort"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
	"stitchroute/internal/steiner"
)

// Config selects the router's stitch awareness.
type Config struct {
	// ReduceCapacity removes the stitching-line track from vertical
	// boundary capacities (MEBL resource estimation).
	ReduceCapacity bool
	// LineEndCost enables the vertex (line-end congestion) term ψ_v.
	LineEndCost bool
}

// StitchAware returns the full stitch-aware configuration.
func StitchAware() Config {
	return Config{ReduceCapacity: true, LineEndCost: true}
}

// EdgeOnly considers MEBL edge capacities but not line-end densities
// (the "w/o line end consideration" arm of Table IV).
func EdgeOnly() Config { return Config{ReduceCapacity: true} }

// Baseline is a conventional congestion-driven global router that knows
// nothing about stitching lines (the NTUgr stand-in).
func Baseline() Config { return Config{} }

// Router holds the global routing graph state for one circuit.
type Router struct {
	f   *grid.Fabric
	cfg Config
	tw  int
	th  int

	// Edge arrays. Horizontal edge (tx,ty)->(tx+1,ty) at index ty*(tw-1)+tx;
	// vertical edge (tx,ty)->(tx,ty+1) at index ty*tw+tx.
	hCap, hDem []int32
	vCap, vDem []int32
	// Vertex (line-end) arrays, indexed ty*tw+tx.
	endCap, endDem []int32
	// History penalties accumulated by the rip-up/reroute refinement on
	// overflowed resources (PathFinder-style negotiation).
	hHist, vHist, endHist []float64

	// ECO recording (trace.go). trace holds the last RouteAll pass's
	// per-net records; rec, when non-nil, is the dense bitset the
	// current net's searches mark popped tiles into.
	trace *Trace
	rec   []uint64

	// arena is the A* scratch every search reuses (see astar).
	arena searchArena
}

// NewRouter builds the routing graph for the fabric.
func NewRouter(f *grid.Fabric, cfg Config) *Router {
	tw, th := f.TilesX(), f.TilesY()
	nH, nV := 0, 0
	for l := 1; l <= f.Layers; l++ {
		if f.LayerDir(l) == geom.Horizontal {
			nH++
		} else {
			nV++
		}
	}
	r := &Router{
		f: f, cfg: cfg, tw: tw, th: th,
		hCap: make([]int32, (tw-1)*th), hDem: make([]int32, (tw-1)*th),
		vCap: make([]int32, tw*(th-1)), vDem: make([]int32, tw*(th-1)),
		endCap: make([]int32, tw*th), endDem: make([]int32, tw*th),
		hHist: make([]float64, (tw-1)*th), vHist: make([]float64, tw*(th-1)),
		endHist: make([]float64, tw*th),
	}
	for ty := 0; ty < th; ty++ {
		rowTracks := f.TileRect(0, ty).H()
		for tx := 0; tx+1 < tw; tx++ {
			r.hCap[ty*(tw-1)+tx] = int32(rowTracks * nH)
		}
	}
	for tx := 0; tx < tw; tx++ {
		var colTracks int
		if cfg.ReduceCapacity {
			colTracks = f.VertCapacity(tx)
		} else {
			colTracks = f.TileRect(tx, 0).W()
		}
		for ty := 0; ty+1 < th; ty++ {
			r.vCap[ty*tw+tx] = int32(colTracks * nV)
		}
		endTracks := f.LineEndCapacity(tx) * nV
		for ty := 0; ty < th; ty++ {
			r.endCap[ty*tw+tx] = int32(endTracks)
		}
	}
	return r
}

func psi(d, c int32) float64 {
	if c <= 0 {
		return 1 << 20 // unusable resource
	}
	return math.Exp2(float64(d)/float64(c)) - 1
}

// wlWeight is the per-tile-edge wirelength weight added to the congestion
// cost; it keeps routes short when congestion is low.
const wlWeight float64 = 0.2

// edgeCost is the congestion cost of pushing one more segment over the
// edge: ψ evaluated at demand+1 so scarce (stitch-reduced) boundaries are
// avoided even before they congest.
func (r *Router) edgeCost(horizontal bool, idx int) float64 {
	if horizontal {
		return psi(r.hDem[idx]+1, r.hCap[idx]) + r.hHist[idx] + wlWeight
	}
	return psi(r.vDem[idx]+1, r.vCap[idx]) + r.vHist[idx] + wlWeight
}

// endCost is the line-end congestion cost of placing one more vertical
// line end in tile v.
func (r *Router) endCost(v int) float64 {
	if !r.cfg.LineEndCost {
		return 0
	}
	return psi(r.endDem[v]+1, r.endCap[v]) + r.endHist[v]
}

// arrival direction of the search state.
const (
	dirNone = iota // start state
	dirH
	dirV
)

// RouteNet finds the net's global route and updates the graph demands.
// The returned plan carries the route tree, its segments, and the net's
// multilevel level.
func (r *Router) RouteNet(net *netlist.Net) *plan.NetPlan { return r.planNet(net, nil) }

// planNet is RouteNet, or, given the net's record from a previous pass,
// its replay: the recorded route is committed without a search.
// PinTiles, Level and Segs are recomputed either way; a replayed route's
// edges are copied, so the record stays immutable.
func (r *Router) planNet(net *netlist.Net, nt *NetTrace) *plan.NetPlan {
	np := &plan.NetPlan{NetID: net.ID, Level: plan.Level(net.BBox(), r.f)}
	np.PinTiles = r.pinTiles(net)
	if len(np.PinTiles) <= 1 {
		return np // local net: detailed routing handles it directly
	}
	if nt != nil {
		np.Edges = plan.CopyEdges(nt.Edges)
	} else {
		np.Edges = r.searchTree(np.PinTiles)
	}
	np.Segs = plan.Segmentize(net.ID, np.Edges)
	r.commit(np)
	return np
}

// searchTree connects the pin tiles into one route tree and returns its
// edges, deduplicated.
func (r *Router) searchTree(pinTiles []plan.TilePoint) []plan.TileEdge {
	// Decomposition targets: the pin tiles plus the RSMT Steiner tiles,
	// so trunks are shared (§: multipin nets).
	targets := append([]plan.TilePoint(nil), pinTiles...)
	if len(pinTiles) >= 3 {
		pts := make([]geom.Point, len(pinTiles))
		for i, tp := range pinTiles {
			pts[i] = geom.Point{X: tp.TX, Y: tp.TY}
		}
		for _, sp := range steiner.Build(pts).Steiner {
			targets = append(targets, plan.TilePoint{TX: sp.X, TY: sp.Y})
		}
	}

	// Prim-style: grow a tree from the first pin tile, connecting the
	// nearest unconnected target each step with an A* search from the
	// whole current tree. treeList mirrors the membership map in
	// insertion order so the nearest-target scan below iterates
	// deterministically (and faster than ranging the map).
	inTree := map[plan.TilePoint]bool{targets[0]: true}
	treeList := []plan.TilePoint{targets[0]}
	remaining := append([]plan.TilePoint(nil), targets[1:]...)
	var edges []plan.TileEdge
	for len(remaining) > 0 {
		// Nearest remaining pin tile by Manhattan distance to tree.
		bestIdx, bestD := -1, 1<<30
		for i, tp := range remaining {
			for _, q := range treeList {
				d := geom.Abs(tp.TX-q.TX) + geom.Abs(tp.TY-q.TY)
				if d < bestD {
					bestD, bestIdx = d, i
				}
			}
		}
		target := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		if inTree[target] {
			continue
		}
		path := r.astar(inTree, target)
		for _, tp := range path {
			if !inTree[tp] {
				inTree[tp] = true
				treeList = append(treeList, tp)
			}
		}
		edges = append(edges, plan.PathToEdges(path)...)
	}
	return plan.DedupeEdges(edges)
}

// pinTiles returns the net's deduplicated pin tiles in sorted order.
// The map is only a membership set, and sorting before anything reads
// the collection keeps its iteration order out of the plan.
func (r *Router) pinTiles(net *netlist.Net) []plan.TilePoint {
	tileSet := make(map[plan.TilePoint]bool, len(net.Pins))
	for _, p := range net.Pins {
		tx, ty := r.f.TileOf(p.Point)
		tileSet[plan.TilePoint{TX: tx, TY: ty}] = true
	}
	tiles := make([]plan.TilePoint, 0, len(tileSet))
	for tp := range tileSet {
		tiles = append(tiles, tp)
	}
	sort.Slice(tiles, func(i, j int) bool {
		a, b := tiles[i], tiles[j]
		if a.TX != b.TX {
			return a.TX < b.TX
		}
		return a.TY < b.TY
	})
	return tiles
}

// commit adds the plan's demands to the graph: one per route edge, one
// line-end per vertical segment endpoint.
func (r *Router) commit(np *plan.NetPlan) {
	for _, e := range np.Edges {
		if e.Horizontal() {
			r.hDem[e.A.TY*(r.tw-1)+e.A.TX]++
		} else {
			r.vDem[e.A.TY*r.tw+e.A.TX]++
		}
	}
	for _, le := range plan.LineEnds(np.Segs) {
		r.endDem[le.TY*r.tw+le.TX]++
	}
}

// tileState is one A* state's search record. dist and prev are
// meaningful only when stamp equals the arena's current stamp; an
// unstamped state reads as +Inf with no predecessor, exactly what a
// freshly filled array gives, so the search never clears the arena.
type tileState struct {
	dist  float64
	prev  int32
	stamp uint32
}

// searchArena is the router's global A* scratch: the per-state records,
// the open list, the sorted source states and the path buffer, reused
// across searches so a steady-state search allocates nothing.
type searchArena struct {
	states []tileState
	cur    uint32
	heap   fHeap
	srcs   []int
	path   []plan.TilePoint
}

// begin sizes the arena to n states and starts a fresh stamp epoch.
func (a *searchArena) begin(n int) {
	if len(a.states) < n {
		a.states = make([]tileState, n)
	}
	if a.cur == math.MaxUint32 {
		// The stamps would wrap: clear the arena and restart the epoch.
		// The reset point depends only on how many searches this arena
		// has run, which is deterministic, and a cleared arena is
		// indistinguishable from a fresh one.
		clear(a.states)
		a.cur = 0
	}
	a.cur++
	a.heap.reset()
}

// astar searches from the source tile set to the target, minimizing
// Ψ(P) plus the wirelength term. The state includes the arrival direction
// so the vertex cost can be charged exactly where vertical runs start and
// end (line ends). The returned path aliases the arena's path buffer:
// callers consume it before the next search (RouteNet copies it into
// the tree and the edge list immediately).
func (r *Router) astar(sources map[plan.TilePoint]bool, target plan.TilePoint) []plan.TilePoint {
	tw, th := r.tw, r.th
	const nd = 3
	a := &r.arena
	a.begin(tw * th * nd)
	states, cur := a.states, a.cur
	h := func(v int) float64 {
		tx, ty := v%tw, v/tw
		return wlWeight * float64(geom.Abs(tx-target.TX)+geom.Abs(ty-target.TY))
	}
	// Seed the heap in a fixed source order: equal-priority states pop in
	// insertion order, so iterating the source map directly would leak its
	// random order into tie-breaks and make routing nondeterministic run
	// to run (the correctness harness caught exactly that).
	srcs := a.srcs[:0]
	for s := range sources {
		srcs = append(srcs, s.TY*tw+s.TX)
	}
	sort.Ints(srcs)
	a.srcs = srcs
	pq := &a.heap
	for _, v := range srcs {
		states[v*nd+dirNone] = tileState{dist: 0, prev: -1, stamp: cur}
		pq.push(v*nd+dirNone, h(v))
	}
	goal := target.TY*tw + target.TX
	var goalState = -1
	for pq.len() > 0 {
		st, f := pq.pop()
		v, d := st/nd, st%nd
		dist := states[st].dist // popped states are always stamped
		if f-h(v) > dist+1e-12 {
			continue
		}
		if r.rec != nil {
			// ECO read-set: every popped tile (see trace.go).
			r.rec[v>>6] |= 1 << (uint(v) & 63)
		}
		if v == goal {
			// Terminating with a vertical arrival adds a final line end;
			// fold that into goal selection by preferring the cheaper
			// terminal state.
			goalState = st
			break
		}
		tx, ty := v%tw, v/tw
		// Expand the four moves.
		type move struct {
			nv, ndir int
			cost     float64
		}
		var moves [4]move
		nm := 0
		if tx+1 < tw {
			moves[nm] = move{v + 1, dirH, r.edgeCost(true, ty*(tw-1)+tx)}
			nm++
		}
		if tx > 0 {
			moves[nm] = move{v - 1, dirH, r.edgeCost(true, ty*(tw-1)+tx-1)}
			nm++
		}
		if ty+1 < th {
			moves[nm] = move{v + tw, dirV, r.edgeCost(false, ty*tw+tx)}
			nm++
		}
		if ty > 0 {
			moves[nm] = move{v - tw, dirV, r.edgeCost(false, (ty-1)*tw+tx)}
			nm++
		}
		for i := 0; i < nm; i++ {
			m := moves[i]
			c := m.cost
			// Line-end charges: starting a vertical run (turning into V or
			// starting vertically) charges the run's low tile; ending a
			// vertical run (turning from V to H) charges the turn tile.
			if m.ndir == dirV && d != dirV {
				c += r.endCost(v)
			}
			if d == dirV && m.ndir == dirH {
				c += r.endCost(v)
			}
			nst := m.nv*nd + m.ndir
			ns := &states[nst]
			old := math.Inf(1)
			if ns.stamp == cur {
				old = ns.dist
			}
			if nd2 := dist + c; nd2 < old-1e-12 {
				*ns = tileState{dist: nd2, prev: int32(st), stamp: cur}
				pq.push(nst, nd2+h(m.nv))
			}
		}
	}
	if goalState < 0 {
		// Grid graphs are connected; this cannot happen, but never loop.
		return nil
	}
	path := a.path[:0]
	for st := goalState; st != -1; st = int(states[st].prev) {
		v := st / nd
		tp := plan.TilePoint{TX: v % tw, TY: v / tw}
		if len(path) == 0 || path[len(path)-1] != tp {
			path = append(path, tp)
		}
	}
	a.path = path
	// Reverse to source->target order (direction is irrelevant to callers,
	// but keep it tidy).
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// RouteAll routes every net bottom-up: local nets (lower multilevel level)
// first, matching the first pass of the two-pass framework (§II-B).
// It returns the per-net plans indexed by position in c.Nets.
func (r *Router) RouteAll(c *netlist.Circuit) []*plan.NetPlan {
	plans, _ := r.RouteAllContext(context.Background(), c)
	return plans
}

// ctxCheckStride is how many nets are routed between context checks in
// the cancellable loops; ctx.Err takes a lock, so it is not probed on
// every one of the (possibly hundreds of thousands of) nets.
const ctxCheckStride = 32

// RouteAllContext is RouteAll with cancellation: the per-net loop checks
// ctx periodically and returns ctx's error (with the plans routed so far)
// once it is done. A nil error means every net was routed. It is
// RouteAllMemo with no previous trace: every net routes live.
func (r *Router) RouteAllContext(ctx context.Context, c *netlist.Circuit) ([]*plan.NetPlan, error) {
	plans, _, err := r.RouteAllMemo(ctx, c, nil, nil)
	return plans, err
}

// Overflow returns the total and maximum vertex (line-end) overflow over
// all tiles: the TVOF and MVOF columns of Table IV.
func (r *Router) Overflow() (tvof, mvof int) {
	for i := range r.endDem {
		if of := int(r.endDem[i] - r.endCap[i]); of > 0 {
			tvof += of
			if of > mvof {
				mvof = of
			}
		}
	}
	return tvof, mvof
}

// Wirelength returns the total routed wirelength in track units (each tile
// edge spans one stitch pitch).
func (r *Router) Wirelength() int {
	var n int32
	for _, d := range r.hDem {
		n += d
	}
	for _, d := range r.vDem {
		n += d
	}
	return int(n) * r.f.StitchPitch
}

// EdgeOverflow returns the total edge overflow (demand beyond capacity),
// a routability indicator for the global solution.
func (r *Router) EdgeOverflow() int {
	var of int
	for i := range r.hDem {
		if d := int(r.hDem[i] - r.hCap[i]); d > 0 {
			of += d
		}
	}
	for i := range r.vDem {
		if d := int(r.vDem[i] - r.vCap[i]); d > 0 {
			of += d
		}
	}
	return of
}

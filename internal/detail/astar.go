package detail

import (
	"math"

	"stitchroute/internal/geom"
	"stitchroute/internal/netlist"
)

// retryMargins are the growing search-window margins connect tries before
// giving up.
var retryMargins = []int{8, 24, 64}

// nodeState is one window cell's search state, packed into 16 bytes so a
// visit or a pop touches a single cache line instead of four parallel
// arrays, and the arena for a wide window stays a third smaller than the
// 24-byte layout.
type nodeState struct {
	dist float64
	// stamp marks cells reached by the current search; tstamp marks
	// target cells: cell i is a target iff tstamp == curStamp. The
	// stamped fields replace per-call map builds and array clears.
	// int16 keeps the struct at 16 bytes; searchCtx resets the arena
	// when the stamp counter would wrap (see astar).
	stamp  int16
	tstamp int16
	prevMv int8
}

// searchCtx is the router's search arena: all mutable scratch an A* run
// and the per-net geometry analysis touch — the per-cell search states,
// the target marks, the open-list heap — reused across searches so the
// steady-state search allocates nothing. ECO runs pool arenas (scratch):
// each borrows one and hands it back, so an arena outlives any one run
// and its contents carry no meaning between uses; only the stamp
// epochs, which never repeat without a clear, make stale cells inert.
type searchCtx struct {
	// occ backs the bound router's occupancy grid; bind clears it.
	occ []int32

	nodes    []nodeState
	curStamp int32
	heap     cellHeap
	rev      []cell // path-reconstruction scratch

	// mark and mark2 are stamped scratch grids for per-net geometry
	// analysis: components' cell-owner index, commitPath's and
	// releaseEscapes' metal-coverage sets, and trimNet's coverage counts
	// (mark) and anchors (mark2, which needs only the stamps). Each use
	// indexes them within mwin, the bounding box of the cells it
	// touches, on every layer, and bumps mcur, so no clearing is needed
	// and uses cannot observe one another.
	mark  []stampVal
	mark2 []int32
	mwin  markWin
	mcur  int32
	// parent is union-find scratch for components.
	parent []int32
	// compCnt/compCur/compBuf/comps are components' output scratch: cell
	// counts and write cursors per union-find root, the flat cell buffer
	// the groups are packed into, and the group headers. Reused across
	// calls; callers consume the result before the next call.
	compCnt []int32
	compCur []int32
	compBuf []cell
	comps   [][]cell

	// costXl/costYl are per-layer axis move costs, filled at the start
	// of each search (they depend only on the layer's preferred
	// direction and the config, not on the search itself).
	costXl []float64
	costYl []float64
	// hx/hy are the heuristic's per-column and per-row Manhattan gaps to
	// the target bounding box, filled at the start of each search so h
	// is two loads instead of four compares.
	hx []int32
	hy []int32
}

// grow ensures the arena covers n window states, limit being the
// chip's state count. It grows geometrically, capped at limit, so a
// run of ever-larger windows reallocates a logarithmic number of times
// instead of once per new maximum.
func (sc *searchCtx) grow(n, limit int) {
	if len(sc.nodes) >= n {
		return
	}
	sc.nodes = make([]nodeState, min(max(n, 2*len(sc.nodes)), limit))
}

// stampVal is one cell of a stamped scratch grid: val is meaningful only
// when stamp matches the grid's current stamp.
type stampVal struct {
	stamp int32
	val   int32
}

// markWin is the box the stamped scratch grids currently index: columns
// x0..x0+w-1 and rows y0..y0+h-1, on every layer.
type markWin struct {
	x0, y0, w, h int
}

// idx returns the grid index of a cell inside the window.
func (m *markWin) idx(x, y, l int) int { return (l*m.h+(y-m.y0))*m.w + (x - m.x0) }

// contains reports whether column x, row y lies inside the window.
func (m *markWin) contains(x, y int) bool {
	return x >= m.x0 && x < m.x0+m.w && y >= m.y0 && y < m.y0+m.h
}

// emptyBox is the empty rectangle a bounding box grows from.
var emptyBox = geom.Rect{X0: 1, Y0: 1}

// growMark points the stamped scratch grids at box on every layer of
// the router and starts a fresh stamp epoch, returning it.
func (r *Router) growMark(box geom.Rect) int32 {
	return r.sc.growMark(box, r.L, r.X*r.Y*r.L)
}

// growMark points the stamped scratch grids at box on layers layers,
// grows them geometrically, capped at limit (the chip's cell count), as
// grow does, and starts a fresh stamp epoch, returning it.
func (sc *searchCtx) growMark(box geom.Rect, layers, limit int) int32 {
	sc.mwin = markWin{x0: box.X0, y0: box.Y0}
	if !box.Empty() {
		sc.mwin.w, sc.mwin.h = box.W(), box.H()
	}
	if n := sc.mwin.w * sc.mwin.h * layers; len(sc.mark) < n {
		n = min(max(n, 2*len(sc.mark)), limit)
		sc.mark = make([]stampVal, n)
		sc.mark2 = make([]int32, n)
	}
	if sc.mcur == math.MaxInt32 {
		// The epoch would wrap onto stamps still in the grids: clear
		// them and restart, as astar does for the node stamps.
		clear(sc.mark)
		clear(sc.mark2)
		sc.mcur = 0
	}
	sc.mcur++
	return sc.mcur
}

// wiresBBox grows b to cover every wire.
func wiresBBox(b geom.Rect, wires []geom.Segment) geom.Rect {
	for _, w := range wires {
		b = b.Union(w.Bounds())
	}
	return b
}

// pinsBBox grows b to cover every pin.
func pinsBBox(b geom.Rect, pins []netlist.Pin) geom.Rect {
	for _, p := range pins {
		b = b.Union(geom.Rect{X0: p.X, Y0: p.Y, X1: p.X, Y1: p.Y})
	}
	return b
}

// connect runs the stitch-aware A* (eq. 10) from the source component to
// the nearest target cell. It retries with growing search windows before
// giving up.
func (r *Router) connect(t *routeTask, src, targets []cell) ([]cell, bool) {
	box := extendBBox(cellBBox(src), targets)
	for _, margin := range retryMargins {
		win := box.Expand(margin).Intersect(r.f.Bounds())
		if path, ok := r.astar(t, src, targets, win); ok {
			return path, true
		}
		// If the window already covers the chip, a retry cannot help.
		if win == r.f.Bounds() {
			break
		}
	}
	return nil, false
}

// rectDist is the Manhattan gap between two rectangles (0 if they touch).
func rectDist(a, b geom.Rect) int {
	dx, dy := 0, 0
	if a.X1 < b.X0 {
		dx = b.X0 - a.X1
	} else if b.X1 < a.X0 {
		dx = a.X0 - b.X1
	}
	if a.Y1 < b.Y0 {
		dy = b.Y0 - a.Y1
	} else if b.Y1 < a.Y0 {
		dy = a.Y0 - b.Y1
	}
	return dx + dy
}

func cellBBox(cs []cell) geom.Rect {
	b := geom.Rect{X0: cs[0].x, Y0: cs[0].y, X1: cs[0].x, Y1: cs[0].y}
	return extendBBox(b, cs[1:])
}

// extendBBox grows b to cover every cell in cs.
func extendBBox(b geom.Rect, cs []cell) geom.Rect {
	for _, c := range cs {
		if c.x < b.X0 {
			b.X0 = c.x
		}
		if c.x > b.X1 {
			b.X1 = c.x
		}
		if c.y < b.Y0 {
			b.Y0 = c.y
		}
		if c.y > b.Y1 {
			b.Y1 = c.y
		}
	}
	return b
}

// move encodings for path reconstruction.
const (
	mvNone int8 = iota
	mvXPos
	mvXNeg
	mvYPos
	mvYNeg
	mvZPos
	mvZNeg
)

// astar searches inside the window using the router's arena. States are
// cells of the window × all layers. Returns the path from a source cell
// to the first target reached.
func (r *Router) astar(t *routeTask, src, targets []cell, win geom.Rect) ([]cell, bool) {
	r.connects++
	sc := r.sc
	W := win.W()
	H := win.H()
	L := r.L
	sc.grow(W*H*L, r.X*r.Y*L)
	sc.curStamp++
	if sc.curStamp > 0x7fff {
		// The 16-bit node stamps would wrap: clear the arena and restart
		// the epoch. The reset point depends on every search the pooled
		// arena has run, for any router, so it is not reproducible; it
		// need not be, because a search reads only cells carrying its
		// own stamp, and a cleared arena is indistinguishable from a
		// fresh one.
		clear(sc.nodes)
		sc.curStamp = 1
	}
	stamp := int16(sc.curStamp)
	id := int32(t.net.ID)
	f := r.f
	cfg := &r.cfg

	lidx := func(c cell) int { return (c.l*H+(c.y-win.Y0))*W + (c.x - win.X0) }
	inWin := func(x, y int) bool { return x >= win.X0 && x <= win.X1 && y >= win.Y0 && y <= win.Y1 }
	nodes := sc.nodes

	// Mark targets in the stamped arena.
	nTargets := 0
	tb := cellBBox(targets)
	for _, c := range targets {
		if inWin(c.x, c.y) {
			if i := lidx(c); nodes[i].tstamp != stamp {
				nodes[i].tstamp = stamp
				nTargets++
			}
		}
	}
	if nTargets == 0 {
		return nil, false
	}
	// Tabulate the heuristic's per-column and per-row Manhattan gaps to
	// the target bounding box. h then computes the same
	// alpha * float64(dx+dy) it always did — same sum, same
	// conversion, same multiply — from two table loads.
	if len(sc.hx) < W {
		sc.hx = make([]int32, W)
	}
	if len(sc.hy) < H {
		sc.hy = make([]int32, H)
	}
	for wx := 0; wx < W; wx++ {
		x, dx := wx+win.X0, 0
		if x < tb.X0 {
			dx = tb.X0 - x
		} else if x > tb.X1 {
			dx = x - tb.X1
		}
		sc.hx[wx] = int32(dx)
	}
	for wy := 0; wy < H; wy++ {
		y, dy := wy+win.Y0, 0
		if y < tb.Y0 {
			dy = tb.Y0 - y
		} else if y > tb.Y1 {
			dy = y - tb.Y1
		}
		sc.hy[wy] = int32(dy)
	}
	hx, hy := sc.hx, sc.hy
	h := func(x, y int) float64 {
		return alpha * float64(hx[x-win.X0]+hy[y-win.Y0])
	}

	// Per-layer axis move costs: the same multiplications the expansion
	// loop used to run per pop, hoisted to one pass over the layers.
	if len(sc.costXl) < L {
		sc.costXl = make([]float64, L)
		sc.costYl = make([]float64, L)
	}
	for l := 0; l < L; l++ {
		preferred := f.LayerDir(l + 1)
		cx, cy := alpha, alpha
		if preferred != geom.Horizontal {
			cx *= wrongWay
		}
		if preferred != geom.Vertical {
			cy *= wrongWay
		}
		sc.costXl[l] = cx
		sc.costYl[l] = cy
	}
	costXl, costYl := sc.costXl, sc.costYl

	// When the window coordinates fit, each heap entry carries its cell's
	// packed (wx, wy, l) in otherwise-padding bytes, so the pop loop
	// needs no divisions to unpack the window index. Priorities and heap
	// structure are unchanged either way.
	packOK := W <= 1<<12 && H <= 1<<12 && L <= 1<<8
	pack := func(x, y, l int) uint32 {
		if !packOK {
			return 0
		}
		return uint32(x-win.X0) | uint32(y-win.Y0)<<12 | uint32(l)<<24
	}

	pq := &sc.heap
	pq.reset()
	// visit relaxes window cell i (= coordinates x, y, l) to distance d.
	visit := func(i, x, y, l int, d float64, mv int8) {
		n := &nodes[i]
		if n.stamp != stamp || d < n.dist-1e-12 {
			n.stamp = stamp
			n.dist = d
			n.prevMv = mv
			pq.push(i, pack(x, y, l), d+h(x, y))
		}
	}
	for _, c := range src {
		if inWin(c.x, c.y) {
			visit(lidx(c), c.x, c.y, c.l, 0, mvNone)
		}
	}

	pinCells := t.pinCells
	colFlags := r.colFlags
	// Neighbor indices are the popped cell's plus a fixed stride, in both
	// the window arena (i, strides 1/W/W*H) and the global occupancy grid
	// (gi, strides 1/X/X*Y) — no per-neighbor index arithmetic.
	occ := r.occ
	costZCol := r.costZCol
	X, XY := r.X, r.X*r.Y
	id1 := id + 1
	free := func(g int) bool { o := occ[g]; return o == 0 || o == id1 }

	expansions := 0
	var goal cell
	found := false
	for pq.len() > 0 {
		i, pos, fval := pq.pop()
		// Unpack cell coordinates: from the packed entry when windows are
		// small enough, from the window index otherwise.
		var x, y, l int
		if packOK {
			x = int(pos&0xfff) + win.X0
			y = int(pos>>12&0xfff) + win.Y0
			l = int(pos >> 24)
		} else {
			x = i%W + win.X0
			y = (i/W)%H + win.Y0
			l = i / (W * H)
		}
		c := cell{x, y, l}
		n := &nodes[i]
		if n.stamp != stamp || fval-h(x, y) > n.dist+1e-9 {
			continue
		}
		// ECO act: the search reads occupancy only at popped cells'
		// neighbors, so the popped tiles (dilated by one tile when the
		// recording is folded — see collectECO) bound its read set far
		// tighter than the whole window. Tasks built outside prepare
		// (tests) carry no bitset.
		if t.sact != nil {
			ab := (y>>actTileShift)*r.atw + x>>actTileShift
			t.sact[ab>>6] |= 1 << (uint(ab) & 63)
		}
		if n.tstamp == stamp {
			goal = c
			found = true
			break
		}
		expansions++
		if expansions > maxExpansions {
			break
		}
		d := n.dist
		flags := colFlags[x]
		gi := (l*r.Y+y)*X + x

		// x moves
		costX := costXl[l]
		if x+1 <= win.X1 && free(gi+1) {
			visit(i+1, x+1, y, l, d+costX, mvXPos)
		}
		if x-1 >= win.X0 && free(gi-1) {
			visit(i-1, x-1, y, l, d+costX, mvXNeg)
		}
		// y moves: forbidden along stitching columns (hard constraint).
		if flags&colStitch == 0 {
			costY := costYl[l]
			if cfg.StitchAware && flags&colEscape != 0 {
				costY += cfg.Gamma
			}
			if y+1 <= win.Y1 && free(gi+X) {
				visit(i+W, x, y+1, l, d+costY, mvYPos)
			}
			if y-1 >= win.Y0 && free(gi-X) {
				visit(i-W, x, y-1, l, d+costY, mvYNeg)
			}
		}
		// z moves: vias forbidden on stitching columns except at pins.
		if flags&colStitch == 0 || pinCells.has(x, y) {
			costZ := costZCol[x]
			if l+1 < L && free(gi+XY) {
				visit(i+W*H, x, y, l+1, d+costZ, mvZPos)
			}
			if l-1 >= 0 && free(gi-XY) {
				visit(i-W*H, x, y, l-1, d+costZ, mvZNeg)
			}
		}
	}
	r.expansions += int64(expansions)
	if !found {
		return nil, false
	}
	// Reconstruct goal-first into the arena's path scratch, then reverse
	// in place. The returned path aliases the arena: callers consume it
	// before the next search on this arena (routeNet commits it
	// immediately), so the steady-state search allocates nothing.
	rev := sc.rev[:0]
	c := goal
	for {
		rev = append(rev, c)
		mv := nodes[lidx(c)].prevMv
		if mv == mvNone {
			break // reached a source cell
		}
		switch mv {
		case mvXPos:
			c.x--
		case mvXNeg:
			c.x++
		case mvYPos:
			c.y--
		case mvYNeg:
			c.y++
		case mvZPos:
			c.l--
		case mvZNeg:
			c.l++
		}
		if len(rev) > 4*(W*H*L+4) {
			sc.rev = rev
			return nil, false // corrupt backtrace; fail safe
		}
	}
	sc.rev = rev
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// pinSet is a net's pin (x, y) set, packed for the A* via rule. Nets
// have at most a handful of pins, so a linear scan over packed keys
// beats a map lookup in the expansion loop.
type pinSet []uint64

func pinKey(x, y int) uint64 { return uint64(uint32(x))<<32 | uint64(uint32(y)) }

func (s pinSet) has(x, y int) bool {
	k := pinKey(x, y)
	for _, p := range s {
		if p == k {
			return true
		}
	}
	return false
}

// Column classification bits, precomputed per x track in Router.colFlags.
const (
	colStitch = 1 << iota // on a stitching line
	colSUR                // in a stitch-unfriendly region
	colEscape             // in an escape region
)

// cellHeap is a binary min-heap of (window index, priority). It is owned
// by a searchCtx and reused across searches via reset. The sift loops
// move a hole instead of swapping (half the writes of a swap-based
// heap), but run the exact comparison sequence of the classic swap
// formulation, so the pop order — including among equal priorities,
// which the router's tie-breaks depend on — is unchanged.
type cellHeap struct {
	e []heapEntry
}

// heapEntry is 16 bytes: pos rides in what would otherwise be padding
// after idx, so carrying the packed cell coordinates costs no space.
type heapEntry struct {
	prio float64
	idx  int32
	pos  uint32
}

func (h *cellHeap) reset() { h.e = h.e[:0] }

func (h *cellHeap) len() int { return len(h.e) }

func (h *cellHeap) push(i int, pos uint32, p float64) {
	h.e = append(h.e, heapEntry{})
	j := len(h.e) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if h.e[parent].prio <= p {
			break
		}
		h.e[j] = h.e[parent]
		j = parent
	}
	h.e[j] = heapEntry{prio: p, idx: int32(i), pos: pos}
}

func (h *cellHeap) pop() (int, uint32, float64) {
	top := h.e[0]
	last := len(h.e) - 1
	v := h.e[last]
	h.e = h.e[:last]
	j := 0
	for {
		l, rr := 2*j+1, 2*j+2
		small, sp := j, v.prio
		if l < last && h.e[l].prio < sp {
			small, sp = l, h.e[l].prio
		}
		if rr < last && h.e[rr].prio < sp {
			small, sp = rr, h.e[rr].prio
		}
		if small == j {
			break
		}
		h.e[j] = h.e[small]
		j = small
	}
	if last > 0 {
		h.e[j] = v
	}
	return int(top.idx), top.pos, top.prio
}

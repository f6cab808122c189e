// Package detail implements stitch-aware detailed routing (§III-D).
//
// The detailed router works on the full track grid (x, y, layer). It first
// materializes the wires planned by layer/track assignment, then connects
// each net's pins and planned segments with A* searches (pin-to-segment and
// segment-to-segment routing); nets that fail are ripped up and routed
// directly, completing the second bottom-up pass of the framework.
//
// The grid cost follows eq. (10):
//
//	C(j) = C(i) + α·C_wl + β·C_vsu + γ·C_esc
//
// where C_vsu charges vias (z-moves) inside stitch-unfriendly regions and
// C_esc charges vertical occupation of the escape region — the four tracks
// nearest a stitching line, reserved for paths that must cross it. Hard
// constraints always hold: wires may cross stitching lines only in the
// x-direction, and vias may sit on a stitching line only at fixed pins.
// Stitch-aware net ordering routes nets with more bad ends first, giving
// them the resources to escape their stitch-unfriendly line ends.
package detail

import (
	"context"
	"sort"
	"sync"
	"time"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// Config controls the detailed router.
type Config struct {
	// StitchAware enables the β/γ cost terms and bad-end net ordering.
	// Hard constraints (no vertical routing and no vias on stitching
	// lines) hold in both modes, as in the paper's baseline.
	StitchAware bool
	// Beta and Gamma are the eq. (10) stitch weights (paper: 10, 5); the
	// wirelength weight α is fixed at the paper's 1.
	Beta, Gamma float64
	// OrderByBadEnds routes nets with more unavoidable bad ends first
	// (§III-D2). On by default in stitch-aware mode; exposed separately
	// for the net-ordering ablation.
	OrderByBadEnds bool
}

// The fixed search costs: alpha is eq. (10)'s wirelength weight per
// track step, viaCost the base cost of a z-move, and wrongWay multiplies
// alpha for moves against a layer's preferred direction. maxExpansions
// bounds each A* attempt.
const (
	alpha         float64 = 1
	viaCost       float64 = 2
	wrongWay      float64 = 2
	maxExpansions         = 400_000
)

// ResolveWorkers returns 1, the number of threads the detailed router
// runs on, whatever its argument.
//
// Deprecated: the detailed router is sequential. The only caller is the
// benchmark in benchmark/, which prints the value in its header.
func ResolveWorkers(int) int { return 1 }

// SchedStats is the telemetry of a parallel scheduler the detailed
// router no longer has. Every field is always zero.
//
// Deprecated: the only reader is the benchmark in benchmark/.
type SchedStats struct {
	Speculated, Committed, Conflicts, Replays int
	WorkerTime                                []time.Duration
}

// DefaultConfig returns the paper's detailed-routing parameters.
func DefaultConfig(stitchAware bool) Config {
	return Config{
		StitchAware:    stitchAware,
		Beta:           10,
		Gamma:          5,
		OrderByBadEnds: stitchAware,
	}
}

// Result is the detailed routing outcome for a circuit.
type Result struct {
	Routes []plan.NetRoute // indexed like the circuit's net slice
	Failed int             // nets that could not be fully connected
	Ripped int             // nets whose planned segments were ripped up
	// Search statistics.
	Connects   int   // A* connection searches run
	Expansions int64 // total A* node expansions

	// Sched is always zero.
	//
	// Deprecated: the only reader is the benchmark in benchmark/.
	Sched SchedStats

	// ECO recording (memo.go), indexed like Routes. Acts is each net's
	// activity rect: the union of its pin bbox, every planned-wire
	// candidate it materialized (accepted or conflicted — both read
	// cells), and every search window it ran — i.e. a superset of every
	// occupancy cell the net's processing read or wrote, as an actTile
	// bucket bitset (memo.go). WActs is the write footprint alone: pin
	// bbox, accepted candidates, and committed wires (including ones a
	// later rip-up cleared) — every cell whose occupancy the net's
	// processing ever changed. NetRipped marks nets whose planned
	// geometry was ripped up, and FreedPins lists pin cells whose
	// reservation ended up released (see replayNet in memo.go for why
	// that is the one non-local bit of rip-up state).
	Acts      [][]uint64
	WActs     [][]uint64
	NetRipped []bool
	FreedPins [][]Cell
	// MatWires is each net's post-materialization candidate set (the
	// planned wires that survived the conflict check), recorded so an
	// ECO run can detect prepare-phase divergence.
	MatWires [][]geom.Segment
}

// Cell is an exported grid coordinate (0-based layer), used by the ECO
// recording fields.
type Cell struct {
	X, Y, L int
}

// Router routes one circuit at a time on a fabric. Its occupancy grid
// and search arena are scratch bound for each run (see bind).
type Router struct {
	f       *grid.Fabric
	cfg     Config
	X, Y, L int
	occ     []int32 // net ID + 1 per cell; 0 = free; held only during a run
	// ECO footprint-bitset geometry: the fabric divided into actTile ×
	// actTile buckets, atw × ath of them, awords uint64 words per bitset
	// (see memo.go). Read-only after NewRouter.
	atw, ath, awords int
	// colFlags caches the per-x-track stitch/SUR/escape classification
	// (pure functions of x), replacing repeated integer divisions in the
	// A* expansion loop. Read-only after NewRouter.
	colFlags []uint8
	// costZCol caches the per-x-track via cost (viaCost plus the
	// stitch-aware column penalties of eq. 10). Computed with the same
	// floating-point operation sequence the expansion loop used inline,
	// so the cached values are bit-identical. Read-only after NewRouter.
	costZCol []float64

	// sc is the search scratch every connection search reuses; it also
	// backs occ. Held only during a run.
	sc *searchCtx

	// search statistics accumulated across the run.
	connects   int
	expansions int64
}

// NewRouter prepares a router for the fabric. The per-chip scratch, the
// occupancy grid and the search arena, is bound by each run.
func NewRouter(f *grid.Fabric, cfg Config) *Router {
	r := &Router{f: f, cfg: cfg, X: f.XTracks, Y: f.YTracks, L: f.Layers}
	r.atw = (r.X + actTile - 1) / actTile
	r.ath = (r.Y + actTile - 1) / actTile
	r.awords = (r.atw*r.ath + 63) / 64
	r.colFlags = make([]uint8, r.X)
	for x := 0; x < r.X; x++ {
		var fl uint8
		if f.IsStitchCol(x) {
			fl |= colStitch
		}
		if f.InSUR(x) {
			fl |= colSUR
		}
		if f.InEscape(x) {
			fl |= colEscape
		}
		r.colFlags[x] = fl
	}
	r.costZCol = make([]float64, r.X)
	for x := 0; x < r.X; x++ {
		fl := r.colFlags[x]
		costZ := viaCost
		if cfg.StitchAware {
			switch {
			case fl&colStitch != 0:
				// Allowed only at a fixed pin, but it is still a via
				// violation: take it only as a last resort.
				costZ += 2 * cfg.Beta
			case fl&colSUR != 0:
				costZ += cfg.Beta
			}
			if fl&colEscape != 0 {
				costZ += cfg.Gamma
			}
		}
		r.costZCol[x] = costZ
	}
	return r
}

// scratch is the free list of search arenas, each with its occupancy
// buffer, most recently returned last: an ECO run (RunPatch, RunMemo)
// reuses the chip-sized scratch of an earlier ECO run instead of
// allocating and zeroing its own. Cold runs never touch it (see
// RunContext). It holds at most one arena per ECO run that ran at
// once, each as large as the largest chip and window it served.
//
// It is not a sync.Pool: a pool keeps a returned item in a slot
// private to the processor that returned it, so a goroutine that moved
// to another processor between two runs misses its own arena and
// allocates a new one, and a pool holds several arenas at once. On
// meblbench eco-patch that was one new arena every ten patches and a
// 20–30% higher peak RSS.
var scratch struct {
	mu   sync.Mutex
	free []*searchCtx
}

// borrow binds a free arena, or a new one, to r for one ECO run, which
// hands it back with giveBack.
func (r *Router) borrow() {
	var sc *searchCtx
	scratch.mu.Lock()
	if n := len(scratch.free); n > 0 {
		sc = scratch.free[n-1]
		scratch.free[n-1] = nil
		scratch.free = scratch.free[:n-1]
	}
	scratch.mu.Unlock()
	if sc == nil {
		sc = new(searchCtx)
	}
	r.bind(sc)
}

// bind makes sc r's scratch, with a cleared occupancy grid.
func (r *Router) bind(sc *searchCtx) {
	n := r.X * r.Y * r.L
	if cap(sc.occ) < n {
		sc.occ = make([]int32, n)
	} else {
		sc.occ = sc.occ[:n]
		clear(sc.occ)
	}
	r.sc, r.occ = sc, sc.occ
}

// unbind drops r's scratch at the end of a run.
func (r *Router) unbind() { r.sc, r.occ = nil, nil }

// giveBack returns r's borrowed scratch to the free list.
func (r *Router) giveBack() {
	sc := r.sc
	r.unbind()
	scratch.mu.Lock()
	scratch.free = append(scratch.free, sc)
	scratch.mu.Unlock()
}

func (r *Router) idx(x, y, l int) int { return (l*r.Y+y)*r.X + x }

// cellFree reports whether the cell is free or owned by net id.
func (r *Router) cellFree(x, y, l int, id int32) bool {
	o := r.occ[r.idx(x, y, l)]
	return o == 0 || o == id+1
}

// wireFree reports whether every cell the wire covers is free or owned
// by net id.
func (r *Router) wireFree(w geom.Segment, id int32) bool {
	l := w.Layer - 1
	if w.Orient == geom.Horizontal {
		for x := w.Span.Lo; x <= w.Span.Hi; x++ {
			if !r.cellFree(x, w.Fixed, l, id) {
				return false
			}
		}
	} else {
		for y := w.Span.Lo; y <= w.Span.Hi; y++ {
			if !r.cellFree(w.Fixed, y, l, id) {
				return false
			}
		}
	}
	return true
}

// Run routes every net. plans must be indexed like c.Nets; nil entries are
// treated as unplanned local nets.
func (r *Router) Run(c *netlist.Circuit, plans []*plan.NetPlan) *Result {
	res, _ := r.RunContext(context.Background(), c, plans)
	return res
}

// RunContext is Run with cancellation: ctx is checked at the top of the
// per-net routing loop, so a cancelled run returns after at most one
// more net's worth of A* work. On cancellation it returns the partial
// result (nets not reached are recorded as unrouted) together with
// ctx's error.
func (r *Router) RunContext(ctx context.Context, c *netlist.Circuit, plans []*plan.NetPlan) (*Result, error) {
	// A cold run allocates its own arena and drops it at the end: it
	// runs for hundreds of milliseconds to seconds, so the allocation
	// costs it nothing measurable, while an arena kept after it stays
	// live through whatever the process does next and raises that peak
	// heap. A router that already holds scratch keeps it: in-package
	// tests bind their own to inspect it.
	if r.sc == nil {
		r.bind(new(searchCtx))
		defer r.unbind()
	}
	res, nets, order := r.prepare(c, plans)
	for oi, t := range order {
		if err := ctx.Err(); err != nil {
			// Record the nets not reached as unrouted and stop.
			for _, rest := range order[oi:] {
				res.record(rest, false)
			}
			r.finish(res, nets)
			return res, err
		}
		r.routeOne(t, res)
	}
	r.finish(res, nets)
	return res, nil
}

// SetCongestion does nothing.
//
// Deprecated: the congestion map only partitioned a parallel scheduler
// the detailed router no longer has. The only caller is the benchmark
// in benchmark/.
func (r *Router) SetCongestion(*plan.Congestion) {}

// prepare runs everything that precedes the per-net routing loop: task
// construction, pin + escape reservation, planned-wire materialization,
// and the stitch-aware net ordering. It is shared verbatim by the cold
// run (RunContext) and the memoized ECO run (RunMemo) — the ECO
// equivalence argument relies on this phase being identical.
func (r *Router) prepare(c *netlist.Circuit, plans []*plan.NetPlan) (res *Result, nets, order []*routeTask) {
	res = &Result{Routes: make([]plan.NetRoute, len(c.Nets))}

	nets = make([]*routeTask, len(c.Nets))
	for i := range c.Nets {
		t := newTask(c, plans, i)
		t.act = make([]uint64, r.awords)
		t.wact = make([]uint64, r.awords)
		t.sact = make([]uint64, r.awords)
		// Prepare touches occupancy only at each pin cell and its via
		// escape directly above (same x,y) — mark those tiles, not the
		// whole multi-pin bounding box, which for a spread net would
		// blanket the fabric and defeat the ECO overlap test.
		for _, pin := range t.net.Pins {
			pr := geom.Rect{X0: pin.X, Y0: pin.Y, X1: pin.X, Y1: pin.Y}
			r.markAct(t.act, pr)
			r.markAct(t.wact, pr)
		}
		nets[i] = t
	}

	r.reserveAndMaterialize(nets)
	// ECO recording: each net's materialization outcome. A conflict
	// check's verdict depends on other nets' cells, so an edit can flip
	// it — RunMemo compares these against the edited run's post-prepare
	// candidates to catch divergence that happens before the routing
	// loop's clean checks (see the pre-loop seeding in memo.go).
	res.MatWires = make([][]geom.Segment, len(nets))
	for i, t := range nets {
		res.MatWires[i] = append([]geom.Segment(nil), t.wires...)
	}

	return res, nets, r.netOrder(nets)
}

// newTask builds the routing task of the circuit's i-th net. The pin-cell
// set is a property of the net, built once here instead of once per
// connection search.
func newTask(c *netlist.Circuit, plans []*plan.NetPlan, i int) *routeTask {
	n := c.Nets[i]
	t := &routeTask{net: n, slot: i}
	if plans != nil {
		t.plan = plans[i]
	}
	for _, pin := range n.Pins {
		if !t.pinCells.has(pin.X, pin.Y) {
			t.pinCells = append(t.pinCells, pinKey(pin.X, pin.Y))
		}
	}
	return t
}

// reserveAndMaterialize reserves the tasks' pin cells first, so no
// planned wire or route of another net can cover a pin and strand it,
// plus the cell directly above each pin as a guaranteed via escape
// (otherwise dense neighbours can entomb a pin on its own layer). Unused
// escape cells are released after the owning net is routed. It then
// materializes the tasks' planned wires: track assignment reserved those
// resources, and detailed routing connects to them. Wires that would
// cover another net's pin are dropped by the conflict check.
func (r *Router) reserveAndMaterialize(tasks []*routeTask) {
	for _, t := range tasks {
		for _, p := range t.net.Pins {
			i := r.idx(p.X, p.Y, p.Layer-1)
			if r.occ[i] == 0 {
				r.occ[i] = int32(t.net.ID) + 1
			}
			if p.Layer < r.L {
				up := r.idx(p.X, p.Y, p.Layer)
				if r.occ[up] == 0 {
					r.occ[up] = int32(t.net.ID) + 1
					t.escapes = append(t.escapes, cell{p.X, p.Y, p.Layer})
				}
			}
		}
	}
	for _, t := range tasks {
		r.materialize(t)
	}
}

// netOrder returns the tasks in routing order: lower hierarchy level
// first, then (stitch-aware) more bad ends first, then smaller HPWL,
// then net ID.
func (r *Router) netOrder(tasks []*routeTask) []*routeTask {
	order := make([]*routeTask, len(tasks))
	copy(order, tasks)
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := order[a], order[b]
		la, lb := ta.level(), tb.level()
		if la != lb {
			return la < lb
		}
		if r.cfg.OrderByBadEnds {
			ba, bb := ta.badEnds(), tb.badEnds()
			if ba != bb {
				return ba > bb // more bad ends first (§III-D2)
			}
		}
		ha, hb := ta.net.HPWL(), tb.net.HPWL()
		if ha != hb {
			return ha < hb
		}
		return ta.net.ID < tb.net.ID
	})
	return order
}

// record writes a task's outcome into res.
func (res *Result) record(t *routeTask, routed bool) {
	res.Routes[t.slot] = plan.NetRoute{
		NetID:  t.net.ID,
		Routed: routed,
		Wires:  t.wires,
		Vias:   t.vias,
	}
}

// finish fills the result fields derived after the routing loop.
func (r *Router) finish(res *Result, nets []*routeTask) {
	r.tally(res)
	r.collectECO(res, nets)
}

// tally fills the failure count and the search statistics.
func (r *Router) tally(res *Result) {
	res.Failed = 0
	for i := range res.Routes {
		if !res.Routes[i].Routed {
			res.Failed++
		}
	}
	res.Connects = r.connects
	res.Expansions = r.expansions
}

// collectECO copies the per-task ECO recording into the result.
func (r *Router) collectECO(res *Result, nets []*routeTask) {
	res.Acts = make([][]uint64, len(nets))
	res.WActs = make([][]uint64, len(nets))
	res.NetRipped = make([]bool, len(nets))
	res.FreedPins = make([][]Cell, len(nets))
	for i, t := range nets {
		res.Acts[i] = r.foldAct(t.act, t.sact)
		res.WActs[i] = t.wact
		res.NetRipped[i] = t.ripped
		res.FreedPins[i] = t.freedPins
	}
}

// recordFreedPins notes which of the net's pin cells it does not own
// after routing: cells another net held at reserve time, or reservations
// a rip-up's clearNet released and no final wire re-covered.
func (r *Router) recordFreedPins(t *routeTask) {
	id := int32(t.net.ID) + 1
	for _, p := range t.net.Pins {
		if r.occ[r.idx(p.X, p.Y, p.Layer-1)] != id {
			t.freedPins = append(t.freedPins, Cell{X: p.X, Y: p.Y, L: p.Layer - 1})
		}
	}
}

// routeOne is the per-net loop body: connect the net through its planned
// geometry; on failure rip that geometry up and route the net directly;
// then escape release and result recording.
func (r *Router) routeOne(t *routeTask, res *Result) {
	ok := r.routeOrDrop(t)
	if !ok {
		res.Ripped++
		t.ripped = true
		ok = r.routeOrDrop(t)
	}
	r.releaseEscapes(t)
	r.recordFreedPins(t)
	res.record(t, ok)
}

// routeOrDrop connects every component of the net and trims the result.
// On failure it rips up all of the net's geometry instead.
func (r *Router) routeOrDrop(t *routeTask) bool {
	if r.routeNet(t) {
		r.trimNet(t)
		return true
	}
	r.clearNet(t)
	t.wires = nil
	t.vias = nil
	return false
}

// routeTask is the per-net routing state.
type routeTask struct {
	net     *netlist.Net
	plan    *plan.NetPlan
	slot    int
	wires   []geom.Segment
	vias    []plan.Via
	escapes []cell // reserved via-escape cells above pins
	// pinCells is the net's pin (x, y) set, used by the A* via rule.
	// Built once per net at task creation; read-only afterwards.
	pinCells pinSet
	// ECO recording: act is the net's activity bitset — every cell its
	// processing read or wrote (pin bbox, materialized candidates, search
	// windows), rounded up to actTile buckets; wact the write footprint
	// only — every cell it ever occupied or released (pin bbox, accepted
	// candidates, committed wires, including ones a later rip-up
	// cleared). act certifies a net clean; wact is what a changed net
	// dirties for others. ripped and freedPins record the rip-up outcome.
	// See Result's ECO fields and memo.go.
	// sact collects the tiles of cells the net's A* searches popped;
	// folded into the activity footprint with a one-tile dilation at
	// collectECO time (a popped cell reads its neighbours' occupancy, so
	// the dilated popped tiles bound the search's true read set far
	// tighter than the retry windows).
	act       []uint64
	wact      []uint64
	sact      []uint64
	ripped    bool
	freedPins []Cell
}

// releaseEscapes frees reserved pin-escape cells the routed net did not
// end up covering with metal, returning them to the routing pool.
func (r *Router) releaseEscapes(t *routeTask) {
	if len(t.escapes) == 0 {
		return
	}
	stamp := r.growMark(wiresBBox(emptyBox, t.wires))
	covered, mw := r.sc.mark, &r.sc.mwin
	for _, w := range t.wires {
		forEachCell(w, func(c cell) { covered[mw.idx(c.x, c.y, c.l)].stamp = stamp })
	}
	for _, c := range t.escapes {
		if mw.contains(c.x, c.y) && covered[mw.idx(c.x, c.y, c.l)].stamp == stamp {
			continue
		}
		if i := r.idx(c.x, c.y, c.l); r.occ[i] == int32(t.net.ID)+1 {
			r.occ[i] = 0
		}
	}
	t.escapes = nil
}

func (t *routeTask) level() int {
	if t.plan != nil {
		return t.plan.Level
	}
	return 0
}

func (t *routeTask) badEnds() int {
	if t.plan == nil {
		return 0
	}
	return t.plan.BadEnds
}

// materialize converts the net's assigned global segments into grid wires
// and occupancy. Conflicting or unassigned (ripped) segments are skipped.
func (r *Router) materialize(t *routeTask) {
	if t.plan == nil {
		return
	}
	sp := r.f.StitchPitch
	id := int32(t.net.ID)
	add := func(w geom.Segment) {
		w = clipSegment(w, r.f)
		if w.Span.Empty() {
			return
		}
		// ECO act: the conflict check below reads every candidate cell,
		// so rejected candidates are part of the footprint too.
		r.markAct(t.act, w.Bounds())
		// Drop the wire if any of its cells is taken.
		if !r.wireFree(w, id) {
			return
		}
		r.markAct(t.wact, w.Bounds())
		r.fillWire(w, id+1)
		t.wires = append(t.wires, w)
	}

	for _, s := range t.plan.Segs {
		if s.Ripped || s.Tracks == nil || s.Layer == 0 {
			continue
		}
		if s.Dir == geom.Vertical {
			panelX := s.Panel * sp
			// Merge consecutive rows on the same track into one wire. The
			// segment's end tiles are clipped to the tile center: the
			// connection searches extend the wire exactly as far as the
			// pins or crossing segments need, without overcommitting
			// routing resources.
			runLo := s.Span.Lo
			cur := s.Tracks[0]
			flush := func(lo, hi, track int) {
				x := panelX + track
				y0 := lo * sp
				y1 := (hi+1)*sp - 1
				if lo == s.Span.Lo {
					y0 = lo*sp + sp/2
				}
				if hi == s.Span.Hi {
					y1 = hi*sp + sp/2
				}
				add(geom.VSeg(s.Layer, x, y0, y1))
			}
			for ri := 1; ri < s.Span.Len(); ri++ {
				if s.Tracks[ri] != cur {
					flush(runLo, s.Span.Lo+ri-1, cur)
					// Dogleg jog at the boundary row.
					yJog := (s.Span.Lo + ri) * sp
					if yJog > 0 {
						yJog--
					}
					add(geom.HSeg(s.Layer, yJog, panelX+cur, panelX+s.Tracks[ri]))
					runLo = s.Span.Lo + ri
					cur = s.Tracks[ri]
				}
			}
			flush(runLo, s.Span.Hi, cur)
		} else {
			y := s.Panel*sp + s.Tracks[0]
			x0 := s.Span.Lo*sp + sp/2
			x1 := s.Span.Hi*sp + sp/2
			add(geom.HSeg(s.Layer, y, x0, x1))
		}
	}
}

func clipSegment(w geom.Segment, f *grid.Fabric) geom.Segment {
	if w.Orient == geom.Horizontal {
		w.Span = w.Span.Intersect(geom.Interval{Lo: 0, Hi: f.XTracks - 1})
		if w.Fixed < 0 || w.Fixed >= f.YTracks {
			w.Span = geom.Interval{Lo: 1, Hi: 0}
		}
	} else {
		w.Span = w.Span.Intersect(geom.Interval{Lo: 0, Hi: f.YTracks - 1})
		if w.Fixed < 0 || w.Fixed >= f.XTracks {
			w.Span = geom.Interval{Lo: 1, Hi: 0}
		}
	}
	return w
}

// clearNet removes all of the net's geometry from the occupancy grid.
func (r *Router) clearNet(t *routeTask) {
	for _, w := range t.wires {
		r.fillWire(w, 0)
	}
}

// cell is a packed grid coordinate.
type cell struct {
	x, y, l int // l is 0-based layer index
}

// components groups the net's current geometry (wires and pins) into
// connected components; vias connect adjacent layers. It runs once per
// connection search, so the cell-sharing analysis uses the arena's
// stamped scratch grid instead of maps.
func (r *Router) components(t *routeTask) [][]cell {
	// Items are the net's wires (in order) followed by its pins; an item's
	// cells enumerate in the same order the old slice materialization
	// produced, so the union sequence — and therefore the component
	// grouping — is unchanged. Everything lives in the arena: no per-call
	// slices, no per-item slices.
	sc := r.sc
	nw := len(t.wires)
	nItems := nw + len(t.net.Pins)
	if cap(sc.parent) < nItems {
		sc.parent = make([]int32, nItems)
	}
	parent := sc.parent[:nItems]
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int) int {
		for int(parent[x]) != x {
			parent[x] = parent[parent[x]]
			x = int(parent[x])
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = int32(find(b)) }

	// Pass 1: union items sharing a chip cell. owner[gi] holds the first
	// item that covered chip cell gi this epoch; the grid spans the
	// items' bounding box.
	stamp := r.growMark(pinsBBox(wiresBBox(emptyBox, t.wires), t.net.Pins))
	owner, mw := sc.mark, &sc.mwin
	visit := func(i int, c cell) {
		gi := mw.idx(c.x, c.y, c.l)
		if owner[gi].stamp == stamp {
			union(i, int(owner[gi].val))
		} else {
			owner[gi] = stampVal{stamp: stamp, val: int32(i)}
		}
	}
	for i := 0; i < nw; i++ {
		w := t.wires[i]
		l := w.Layer - 1
		if w.Orient == geom.Horizontal {
			for x := w.Span.Lo; x <= w.Span.Hi; x++ {
				visit(i, cell{x, w.Fixed, l})
			}
		} else {
			for y := w.Span.Lo; y <= w.Span.Hi; y++ {
				visit(i, cell{w.Fixed, y, l})
			}
		}
	}
	for pi, p := range t.net.Pins {
		visit(nw+pi, cell{p.X, p.Y, p.Layer - 1})
	}
	for _, v := range t.vias {
		if v.Layer < 1 || v.Layer >= r.L || !mw.contains(v.X, v.Y) {
			continue // no cell on one side, or no item covers it
		}
		a := owner[mw.idx(v.X, v.Y, v.Layer-1)]
		b := owner[mw.idx(v.X, v.Y, v.Layer)]
		if a.stamp == stamp && b.stamp == stamp {
			union(int(a.val), int(b.val))
		}
	}

	// Pass 2: per-root cell counts.
	if cap(sc.compCnt) < nItems {
		sc.compCnt = make([]int32, nItems)
		sc.compCur = make([]int32, nItems)
	}
	cnt := sc.compCnt[:nItems]
	cur := sc.compCur[:nItems]
	for i := range cnt {
		cnt[i] = 0
	}
	total := 0
	for i := 0; i < nw; i++ {
		n := t.wires[i].Span.Len()
		cnt[find(i)] += int32(n)
		total += n
	}
	for pi := range t.net.Pins {
		cnt[find(nw+pi)]++
		total++
	}

	// Pass 3: contiguous regions in ascending root order; cur is the
	// per-root write cursor.
	if cap(sc.compBuf) < total {
		sc.compBuf = make([]cell, total)
	}
	buf := sc.compBuf[:total]
	off := int32(0)
	for i := range cnt {
		cur[i] = off
		off += cnt[i]
	}

	// Pass 4: fill cells in item order, so each root's region holds its
	// items' cells in the order the old bucket concatenation produced.
	place := func(i int, c cell) {
		root := find(i)
		buf[cur[root]] = c
		cur[root]++
	}
	for i := 0; i < nw; i++ {
		w := t.wires[i]
		l := w.Layer - 1
		if w.Orient == geom.Horizontal {
			for x := w.Span.Lo; x <= w.Span.Hi; x++ {
				place(i, cell{x, w.Fixed, l})
			}
		} else {
			for y := w.Span.Lo; y <= w.Span.Hi; y++ {
				place(i, cell{w.Fixed, y, l})
			}
		}
	}
	for pi, p := range t.net.Pins {
		place(nw+pi, cell{p.X, p.Y, p.Layer - 1})
	}

	// Emit groups in ascending root order, cells in item order — the same
	// ordering the sorted-map formulation produced. The group headers and
	// the cells alias the arena; routeNet consumes them before the next
	// components call.
	out := sc.comps[:0]
	for i := range cnt {
		if cnt[i] > 0 {
			end := cur[i]
			out = append(out, buf[end-cnt[i]:end:end])
		}
	}
	sc.comps = out
	return out
}

// routeNet connects all components of the net and reports whether it
// succeeded. Partial geometry stays recorded on failure (the caller rips
// it up).
func (r *Router) routeNet(t *routeTask) bool {
	for {
		comps := r.components(t)
		if len(comps) <= 1 {
			return true
		}
		// Connect the first component to the nearest other component
		// (tight target boxes keep the A* heuristic sharp).
		src := comps[0]
		srcBox := cellBBox(src)
		best, bestD := 1, 1<<30
		for ci := 1; ci < len(comps); ci++ {
			if d := rectDist(srcBox, cellBBox(comps[ci])); d < bestD {
				best, bestD = ci, d
			}
		}
		path, ok := r.connect(t, src, comps[best])
		if !ok {
			return false
		}
		r.commitPath(t, path)
	}
}

// commitPath converts an A* cell path into wires and vias. Every cell the
// path touches ends up covered by metal: straight runs become wires, and
// cells a via stack merely passes through get single-cell pads, so the
// occupancy grid and the geometric connectivity stay exact.
func (r *Router) commitPath(t *routeTask, path []cell) {
	id := int32(t.net.ID)
	if len(path) == 0 {
		return
	}
	sc := r.sc
	stamp := r.growMark(cellBBox(path))
	metal, mw := sc.mark, &sc.mwin
	addWire := func(w geom.Segment) {
		//lint:ignore hotalloc the committed wire list is the route's output, not scratch: it outlives the search, so it cannot live in the per-search arena
		t.wires = append(t.wires, w)
		r.markAct(t.wact, w.Bounds())
		r.fillWire(w, id+1)
		forEachCell(w, func(c cell) { metal[mw.idx(c.x, c.y, c.l)].stamp = stamp })
	}
	for i := 0; i+1 < len(path); {
		a, b := path[i], path[i+1]
		if a.l != b.l { // via
			lo := a.l
			if b.l < lo {
				lo = b.l
			}
			//lint:ignore hotalloc the committed via list is the route's output, not scratch: it outlives the search, so it cannot live in the per-search arena
			t.vias = append(t.vias, plan.Via{X: a.x, Y: a.y, Layer: lo + 1})
			i++
			continue
		}
		// Extend the straight run as far as it goes.
		dx, dy := sign(b.x-a.x), sign(b.y-a.y)
		j := i + 1
		for j+1 < len(path) && path[j+1].l == a.l &&
			sign(path[j+1].x-path[j].x) == dx && sign(path[j+1].y-path[j].y) == dy {
			j++
		}
		if dy == 0 {
			addWire(geom.HSeg(a.l+1, a.y, a.x, path[j].x))
		} else {
			addWire(geom.VSeg(a.l+1, a.x, a.y, path[j].y))
		}
		i = j
	}
	// Pad cells traversed without metal (via endpoints, lone terminals).
	for _, c := range path {
		if metal[mw.idx(c.x, c.y, c.l)].stamp != stamp {
			addWire(geom.HSeg(c.l+1, c.y, c.x, c.x))
		}
	}
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// fillWire sets every occupancy cell the wire covers to v: a net ID + 1
// to occupy the wire, 0 to free it.
func (r *Router) fillWire(w geom.Segment, v int32) {
	l := w.Layer - 1
	if w.Orient == geom.Horizontal {
		for x := w.Span.Lo; x <= w.Span.Hi; x++ {
			r.occ[r.idx(x, w.Fixed, l)] = v
		}
	} else {
		for y := w.Span.Lo; y <= w.Span.Hi; y++ {
			r.occ[r.idx(w.Fixed, y, l)] = v
		}
	}
}

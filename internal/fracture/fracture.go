// Package fracture implements the first stage of the MEBL write-prep
// pipeline: converting committed routed geometry into e-beam shots.
//
// A variable-shaped-beam (VSB) or character-projection (CP) writer cannot
// expose arbitrary rectilinear polygons; mask data preparation fractures
// each layer's polygons into shots, and the shot count is the dominant
// term of write time. This package provides two fracturing modes over the
// per-layer union of routed wires and via pads:
//
//   - ModeRect — the rectangle-only baseline: a horizontal sweep
//     decomposition that emits one maximal-height rectangle per maximal
//     run of identical row coverage.
//   - ModeLShape — L-shape fracturing after "L-Shape Based Layout
//     Fracturing for E-Beam Lithography" (arXiv 1402.2420): vertically
//     adjacent sweep rectangles whose union is an L-shape (exactly one
//     aligned side, six corners) are paired, and a maximum matching over
//     the pairing graph merges each matched pair into a single two-
//     rectangle L shot, strictly reducing the shot count.
//
// The pairing graph is solved exactly per connected component: bipartite
// components through the Hungarian assignment (internal/matching), odd
// components through the branch-and-bound solver (internal/ilp). Only
// components beyond the exact-size caps fall back to a deterministic
// greedy matching, and Result.GreedyComponents reports when that
// happened.
//
// All input orderings are explicit and every tie is broken by geometry,
// so fracturing the same routes twice yields byte-identical shot lists —
// the same determinism contract the router itself carries.
package fracture

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"stitchroute/internal/geom"
	"stitchroute/internal/plan"
)

// Mode selects the fracturing algorithm.
type Mode int

const (
	// ModeRect is the rectangle-only horizontal sweep baseline.
	ModeRect Mode = iota
	// ModeLShape additionally merges rectangle pairs into L-shape shots.
	ModeLShape
)

// ParseMode maps the CLI/API spelling of a mode ("rect" or "lshape").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "rect":
		return ModeRect, nil
	case "lshape":
		return ModeLShape, nil
	}
	return 0, fmt.Errorf("fracture: unknown mode %q (want \"rect\" or \"lshape\")", s)
}

func (m Mode) String() string {
	if m == ModeLShape {
		return "lshape"
	}
	return "rect"
}

// Shot is one e-beam exposure. A rectangle shot has only A and an empty
// B; an L-shape shot is the union of the two disjoint rectangles A and B
// (A is the one with the smaller (Y0, X0)). Note the zero Rect is the
// 1×1 cell at the origin, not empty, so rectangle shots carry noRect.
type Shot struct {
	Layer int
	A     geom.Rect
	B     geom.Rect
}

// noRect is the canonical empty B of a rectangle shot.
var noRect = geom.Rect{X0: 0, Y0: 0, X1: -1, Y1: -1}

// IsL reports whether the shot is an L-shape (two-rectangle) shot.
func (s Shot) IsL() bool { return !s.B.Empty() }

// Area returns the number of grid cells the shot exposes.
func (s Shot) Area() int {
	a := s.A.Area()
	if s.IsL() {
		a += s.B.Area()
	}
	return a
}

// longest returns the longer bounding dimension of the shot's union.
func (s Shot) longest() int {
	r := s.A
	if s.IsL() {
		r = r.Union(s.B)
	}
	if w, h := r.W(), r.H(); w > h {
		return w
	} else {
		return h
	}
}

// Options tunes fracturing.
type Options struct {
	// SliverLen is the sliver threshold: a shot whose union spans fewer
	// than SliverLen tracks in its longer dimension counts as a sliver
	// (the write-prep analog of the router's short polygons: tiny
	// exposures whose edge dose error is a large fraction of the
	// feature). 0 means DefaultSliverLen.
	SliverLen int
	// MaxHungarian caps the component size solved exactly with the
	// Hungarian assignment; 0 means DefaultMaxHungarian.
	MaxHungarian int
	// MaxOddExact caps the (non-bipartite) component size solved exactly
	// with branch and bound; 0 means DefaultMaxOddExact.
	MaxOddExact int
}

// Defaults for Options.
const (
	DefaultSliverLen    = 3
	DefaultMaxHungarian = 256
	DefaultMaxOddExact  = 24
)

func (o Options) withDefaults() Options {
	if o.SliverLen <= 0 {
		o.SliverLen = DefaultSliverLen
	}
	if o.MaxHungarian <= 0 {
		o.MaxHungarian = DefaultMaxHungarian
	}
	if o.MaxOddExact <= 0 {
		o.MaxOddExact = DefaultMaxOddExact
	}
	return o
}

// Result is the fractured shot list with its statistics.
type Result struct {
	Mode  Mode
	Shots []Shot

	// RectShots is the rectangle-only baseline count (the sweep
	// rectangle total); in ModeRect it equals ShotCount. LShots counts
	// the L-shape shots, Slivers the shots under the sliver threshold,
	// and Area the exposed cells (equal to the union area).
	RectShots int
	ShotCount int
	LShots    int
	Slivers   int
	Area      int64

	// GreedyComponents counts pairing components beyond the exact-size
	// caps that were matched greedily; 0 means the matching is a proven
	// maximum. MatchNodes is the total branch-and-bound node count.
	GreedyComponents int
	MatchNodes       int
}

// LShapeReduction returns the fractional shot-count reduction of the
// result against its rectangle-only baseline (0 for ModeRect).
func (r *Result) LShapeReduction() float64 {
	if r.RectShots == 0 {
		return 0
	}
	return float64(r.RectShots-r.ShotCount) / float64(r.RectShots)
}

// Fracture fractures the routed geometry of layers 1..layers.
func Fracture(routes []plan.NetRoute, layers int, mode Mode, opts Options) *Result {
	res, err := FractureContext(context.Background(), routes, layers, mode, opts)
	if err != nil {
		// Only context cancellation produces an error, and the background
		// context cannot be cancelled.
		panic("fracture: background context cancelled: " + err.Error())
	}
	return res
}

// FractureContext is Fracture under a context: cancellation is observed
// between layers and inside the branch-and-bound pairing search, and a
// cancelled run returns the context's error.
func FractureContext(ctx context.Context, routes []plan.NetRoute, layers int, mode Mode, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{Mode: mode}
	// Sweep every layer into one rectangle list, then pair each layer's
	// range, then emit into a shot list sized exactly once.
	type layerRange struct{ layer, lo, hi int }
	var (
		cv     coverage
		rects  []geom.Rect
		ranges []layerRange
	)
	for l := 1; l <= layers; l++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fracture: %w", err)
		}
		if rows := cv.layerRows(routes, l); len(rows) > 0 {
			lo := len(rects)
			rects = sweep(rects, rows)
			ranges = append(ranges, layerRange{l, lo, len(rects)})
		}
	}
	pairing := make([]int, len(rects))
	for i := range pairing {
		pairing[i] = -1
	}
	if mode == ModeLShape {
		var m matcher
		for _, lr := range ranges {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("fracture: %w", err)
			}
			if err := m.matchLPairs(ctx, rects[lr.lo:lr.hi], pairing[lr.lo:lr.hi], opts, res); err != nil {
				return nil, err
			}
		}
	}
	matched := 0
	for _, p := range pairing {
		if p >= 0 {
			matched++
		}
	}
	// Each L shot merges two matched rectangles.
	res.Shots = make([]Shot, 0, len(rects)-matched/2)

	for _, lr := range ranges {
		res.Shots = emitShots(res.Shots, lr.layer, rects[lr.lo:lr.hi], pairing[lr.lo:lr.hi])
	}
	for _, r := range rects {
		res.Area += int64(r.Area())
	}
	for _, s := range res.Shots {
		if s.IsL() {
			res.LShots++
		}
		if s.longest() < opts.SliverLen {
			res.Slivers++
		}
	}
	res.RectShots = len(rects)
	res.ShotCount = len(res.Shots)
	return res, nil
}

// emitShots appends the shots of the sweep rectangles and the pairing
// (pairing[i] = j means rects i and j merge into one L shot; -1 = single)
// to dst. A shot's A is the lower-indexed rectangle, so the shots come
// out in rects order, (A.Y0, A.X0) ascending: the canonical order, with
// no sort.
func emitShots(dst []Shot, layer int, rects []geom.Rect, pairing []int) []Shot {
	for i, r := range rects {
		if pairing[i] >= 0 {
			j := pairing[i]
			if j < i {
				continue // emitted with its partner
			}
			dst = append(dst, Shot{Layer: layer, A: r, B: rects[j]})
			continue
		}
		dst = append(dst, Shot{Layer: layer, A: r, B: noRect})
	}
	return dst
}

// eachInputRect calls fn with every raw rectangle of the routed geometry
// on one layer: each wire as a one-track-wide rectangle and each via as
// a 1×1 pad on both layers it joins. Wires with an empty span (Lo > Hi)
// cover no cell and are skipped.
func eachInputRect(routes []plan.NetRoute, layer int, fn func(geom.Rect)) {
	for i := range routes {
		for _, w := range routes[i].Wires {
			if w.Layer != layer || w.Span.Empty() {
				continue
			}
			a, b := w.Ends()
			fn(geom.Rect{X0: a.X, Y0: a.Y, X1: b.X, Y1: b.Y})
		}
		for _, v := range routes[i].Vias {
			if v.Layer == layer || v.Layer+1 == layer {
				fn(geom.Rect{X0: v.X, Y0: v.Y, X1: v.X, Y1: v.Y})
			}
		}
	}
}

// InputRects returns the raw, possibly overlapping rectangles of the
// routed geometry on one layer: every wire as a one-track-wide rectangle
// and every via as a 1×1 landing pad on both layers it joins. This is
// the exact geometry Fracture decomposes, exposed so the raster
// differential gate can render the unfractured reference.
func InputRects(routes []plan.NetRoute, layer int) []geom.Rect {
	var out []geom.Rect
	eachInputRect(routes, layer, func(r geom.Rect) { out = append(out, r) })
	return out
}

// ShotRects appends the rectangles of every shot on the layer to dst:
// one per rectangle shot, two per L shot. The rectangles of a correct
// fracturing are pairwise disjoint and cover exactly the layer's union.
func ShotRects(dst []geom.Rect, shots []Shot, layer int) []geom.Rect {
	for _, s := range shots {
		if s.Layer != layer {
			continue
		}
		dst = append(dst, s.A)
		if s.IsL() {
			dst = append(dst, s.B)
		}
	}
	return dst
}

// row is one grid row's coverage: sorted maximal runs.
type row struct {
	y    int
	runs []geom.Interval
}

// coverage rasterizes one layer at a time into a row-major bitset over
// the bounding box of the layer's geometry; its buffers are reused
// across layers.
type coverage struct {
	bits []uint64
	runs []geom.Interval
	rows []row
}

// layerRows builds the exact cell coverage of one layer as maximal
// horizontal runs, ascending by row; each row's runs are sorted,
// disjoint and non-adjacent. Rows without coverage are omitted. The
// result aliases the coverage buffers and is valid until the next call.
func (cv *coverage) layerRows(routes []plan.NetRoute, layer int) []row {
	box := geom.Rect{X0: 0, Y0: 0, X1: -1, Y1: -1}
	eachInputRect(routes, layer, func(r geom.Rect) { box = box.Union(r) })
	if box.Empty() {
		return nil
	}
	stride := (box.W() + 63) >> 6
	cv.bits = grow(cv.bits, stride*box.H())
	clear(cv.bits)
	eachInputRect(routes, layer, func(r geom.Rect) {
		for y := r.Y0; y <= r.Y1; y++ {
			off := (y - box.Y0) * stride
			setRange(cv.bits[off:off+stride], r.X0-box.X0, r.X1-box.X0)
		}
	})

	cv.runs, cv.rows = cv.runs[:0], cv.rows[:0]
	for y := box.Y0; y <= box.Y1; y++ {
		off := (y - box.Y0) * stride
		start := len(cv.runs)
		cv.runs = appendRuns(cv.runs, cv.bits[off:off+stride], box.X0)
		// If a later append moves the buffer, this row keeps the old
		// array, which still holds its runs.
		if len(cv.runs) > start {
			cv.rows = append(cv.rows, row{y: y, runs: cv.runs[start:len(cv.runs):len(cv.runs)]})
		}
	}
	return cv.rows
}

// setRange sets bits lo..hi (inclusive) of a bitset row.
func setRange(row []uint64, lo, hi int) {
	wlo, whi := lo>>6, hi>>6
	first := ^uint64(0) << (lo & 63)
	last := ^uint64(0) >> (63 - hi&63)
	if wlo == whi {
		row[wlo] |= first & last
		return
	}
	row[wlo] |= first
	for w := wlo + 1; w < whi; w++ {
		row[w] = ^uint64(0)
	}
	row[whi] |= last
}

// appendRuns appends the maximal runs of set bits in a bitset row to
// dst, as intervals offset by x0, in ascending order.
func appendRuns(dst []geom.Interval, row []uint64, x0 int) []geom.Interval {
	n := len(row)
	for wi, pos := 0, 0; ; {
		// Next set bit at or after pos.
		w := row[wi] &^ (uint64(1)<<(pos&63) - 1)
		for w == 0 {
			if wi++; wi == n {
				return dst
			}
			w = row[wi]
		}
		start := wi<<6 | bits.TrailingZeros64(w)
		// Next clear bit after start; the row may end inside the run.
		z := ^row[wi] &^ (uint64(1)<<(start&63) - 1)
		for z == 0 {
			if wi++; wi == n {
				break
			}
			z = ^row[wi]
		}
		end := n << 6
		if wi < n {
			end = wi<<6 | bits.TrailingZeros64(z)
		}
		dst = append(dst, geom.Interval{Lo: x0 + start, Hi: x0 + end - 1})
		if wi == n {
			return dst
		}
		pos = end
	}
}

// sweep decomposes the row coverage into maximal-height rectangles: a
// run that repeats with the identical span on the next row extends the
// open rectangle; any other transition closes it. The result is sorted
// by (Y0, X0) and is exactly the rectangle-only shot list; sweep appends
// it to dst.
func sweep(dst []geom.Rect, rows []row) []geom.Rect {
	type open struct {
		span geom.Interval
		y0   int
	}
	rects := dst
	base := len(dst)
	closeRect := func(a open, y1 int) {
		// Double when full: append's gentler growth for large slices
		// would allocate about five times the final list over a chip.
		if len(rects) == cap(rects) {
			rects = slices.Grow(rects, max(len(rects), 1024))
		}
		rects = append(rects, geom.Rect{X0: a.span.Lo, Y0: a.y0, X1: a.span.Hi, Y1: y1})
	}
	var active []open
	closeAll := func(y1 int) {
		for _, a := range active {
			closeRect(a, y1)
		}
		active = active[:0]
	}
	prevY := 0
	var next []open
	for ri, r := range rows {
		if ri > 0 && r.y != prevY+1 {
			closeAll(prevY)
		}
		// Merge-join the sorted open rectangles against the sorted runs:
		// identical spans extend, everything else closes/opens.
		next = next[:0]
		ai := 0
		for _, run := range r.runs {
			for ai < len(active) && active[ai].span.Lo < run.Lo {
				closeRect(active[ai], prevY)
				ai++
			}
			if ai < len(active) && active[ai].span == run {
				next = append(next, open{span: run, y0: active[ai].y0})
				ai++
			} else {
				next = append(next, open{span: run, y0: r.y})
			}
		}
		for ; ai < len(active); ai++ {
			closeRect(active[ai], prevY)
		}
		active, next = next, active
		prevY = r.y
	}
	closeAll(prevY)
	// Distinct rectangles of one decomposition never share a top-left
	// corner, so this order is total.
	slices.SortFunc(rects[base:], func(a, b geom.Rect) int {
		if a.Y0 != b.Y0 {
			return cmp.Compare(a.Y0, b.Y0)
		}
		return cmp.Compare(a.X0, b.X0)
	})
	return rects
}

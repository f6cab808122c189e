package fracture

import (
	"context"
	"testing"

	"stitchroute/internal/geom"
	"stitchroute/internal/plan"
)

// routesFromWires wraps wire segments (and optional vias) as one routed net.
func routesFromWires(wires []geom.Segment, vias ...plan.Via) []plan.NetRoute {
	return []plan.NetRoute{{NetID: 1, Routed: true, Wires: wires, Vias: vias}}
}

// cellSet expands rectangles into their covered cells, failing on overlap
// when disjoint is set.
func cellSet(t *testing.T, rects []geom.Rect, disjoint bool) map[geom.Point]bool {
	t.Helper()
	cells := map[geom.Point]bool{}
	for _, r := range rects {
		for y := r.Y0; y <= r.Y1; y++ {
			for x := r.X0; x <= r.X1; x++ {
				p := geom.Point{X: x, Y: y}
				if disjoint && cells[p] {
					t.Fatalf("cell %v covered twice", p)
				}
				cells[p] = true
			}
		}
	}
	return cells
}

// checkExact asserts the fracturing invariants for one layer: the shot
// rectangles are pairwise disjoint and cover exactly the cells of the
// input geometry.
func checkExact(t *testing.T, routes []plan.NetRoute, res *Result, layer int) {
	t.Helper()
	want := cellSet(t, InputRects(routes, layer), false)
	got := cellSet(t, ShotRects(nil, res.Shots, layer), true)
	if len(got) != len(want) {
		t.Fatalf("layer %d: shots cover %d cells, input covers %d", layer, len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("layer %d: input cell %v not covered by any shot", layer, p)
		}
	}
}

func TestRectFractureSimpleWire(t *testing.T) {
	routes := routesFromWires([]geom.Segment{geom.HSeg(1, 5, 0, 9)})
	res := Fracture(routes, 1, ModeRect, Options{})
	if res.ShotCount != 1 || res.RectShots != 1 {
		t.Fatalf("single wire fractured into %d shots (%d rects)", res.ShotCount, res.RectShots)
	}
	if res.Area != 10 {
		t.Errorf("area = %d, want 10", res.Area)
	}
	checkExact(t, routes, res, 1)
}

// TestLShapeCorner is the canonical L: a horizontal arm meeting a
// vertical arm. Rectangle fracturing needs two shots; L-shape needs one.
func TestLShapeCorner(t *testing.T) {
	routes := routesFromWires([]geom.Segment{
		geom.HSeg(1, 0, 0, 9), // horizontal arm along y=0
		geom.VSeg(1, 0, 0, 9), // vertical arm along x=0
	})
	rect := Fracture(routes, 1, ModeRect, Options{})
	if rect.ShotCount != 2 {
		t.Fatalf("rect mode: %d shots, want 2", rect.ShotCount)
	}
	l := Fracture(routes, 1, ModeLShape, Options{})
	if l.ShotCount != 1 || l.LShots != 1 {
		t.Fatalf("lshape mode: %d shots (%d L), want 1 (1 L)", l.ShotCount, l.LShots)
	}
	if l.RectShots != 2 {
		t.Errorf("lshape baseline count = %d, want 2", l.RectShots)
	}
	checkExact(t, routes, rect, 1)
	checkExact(t, routes, l, 1)
}

// TestLShapeBeatsRect is the hand-built fixture where L-shape fracturing
// provably beats the rectangle baseline: a comb of four L-corners. Each
// corner costs two rectangle shots but one L shot, so the counts are 8
// vs 4 — a strict, structural win, not a tie-break.
func TestLShapeBeatsRect(t *testing.T) {
	var wires []geom.Segment
	for i := 0; i < 4; i++ {
		x := i * 20
		wires = append(wires,
			geom.HSeg(1, 0, x, x+9), // foot
			geom.VSeg(1, x, 0, 9),   // leg, sharing the corner cell
		)
	}
	routes := routesFromWires(wires)
	rect := Fracture(routes, 1, ModeRect, Options{})
	l := Fracture(routes, 1, ModeLShape, Options{})
	if rect.ShotCount != 8 {
		t.Fatalf("rect mode: %d shots, want 8", rect.ShotCount)
	}
	if l.ShotCount != 4 {
		t.Fatalf("lshape mode: %d shots, want 4", l.ShotCount)
	}
	if l.ShotCount >= rect.ShotCount {
		t.Fatalf("L-shape (%d) does not beat rectangles (%d)", l.ShotCount, rect.ShotCount)
	}
	checkExact(t, routes, l, 1)
}

// TestTShapeNotMerged: a vertical stub landing mid-span of a horizontal
// wire forms a T — an 8-corner union that must NOT become one shot.
func TestTShapeNotMerged(t *testing.T) {
	routes := routesFromWires([]geom.Segment{
		geom.HSeg(1, 0, 0, 10),
		geom.VSeg(1, 5, 0, 6), // lands mid-span: T, not L
	})
	l := Fracture(routes, 1, ModeLShape, Options{})
	if l.LShots != 0 {
		t.Fatalf("T junction produced %d L shots, want 0", l.LShots)
	}
	if l.ShotCount != 2 {
		t.Fatalf("T junction: %d shots, want 2", l.ShotCount)
	}
	checkExact(t, routes, l, 1)
}

// TestViaPads: vias pad both layers they join, and overlapping geometry
// (via pad under a wire) must not double-cover cells.
func TestViaPads(t *testing.T) {
	routes := routesFromWires(
		[]geom.Segment{geom.HSeg(1, 3, 0, 5), geom.VSeg(2, 5, 3, 8)},
		plan.Via{X: 5, Y: 3, Layer: 1},
	)
	res := Fracture(routes, 2, ModeRect, Options{})
	checkExact(t, routes, res, 1)
	checkExact(t, routes, res, 2)
	if res.RectShots != 2 || res.ShotCount != 2 {
		t.Errorf("rect shots %d, shots %d, want 2 and 2 (one rectangle per layer)",
			res.RectShots, res.ShotCount)
	}
	// Each layer's wire already covers the via pad cell, so the union is
	// just the two 6-cell wires.
	if res.Area != 12 {
		t.Errorf("area = %d, want 12", res.Area)
	}
}

func TestSliverCount(t *testing.T) {
	routes := routesFromWires(
		nil,
		plan.Via{X: 50, Y: 50, Layer: 1}, // isolated pad: 1x1 sliver on layers 1 and 2
	)
	res := Fracture(routes, 2, ModeRect, Options{})
	if res.Slivers != 2 {
		t.Errorf("slivers = %d, want 2 (one isolated pad per layer)", res.Slivers)
	}
}

// TestCrossingWiresExact: two crossing wires overlap on one cell; the
// union must count it once and fracturing must stay exact.
func TestCrossingWiresExact(t *testing.T) {
	routes := routesFromWires([]geom.Segment{
		geom.HSeg(1, 5, 0, 10),
		geom.VSeg(1, 5, 0, 10),
	})
	res := Fracture(routes, 1, ModeLShape, Options{})
	if res.Area != 21 {
		t.Fatalf("area = %d, want 21 (22 cells minus 1 overlap)", res.Area)
	}
	checkExact(t, routes, res, 1)
}

// TestDeterministicHash: fracturing the same geometry twice (built in a
// different wire order) yields byte-identical shot lists.
func TestDeterministicHash(t *testing.T) {
	wires := []geom.Segment{
		geom.HSeg(1, 0, 0, 9),
		geom.VSeg(1, 0, 0, 9),
		geom.HSeg(1, 9, 3, 12),
		geom.VSeg(1, 12, 9, 14),
	}
	rev := make([]geom.Segment, len(wires))
	for i, w := range wires {
		rev[len(wires)-1-i] = w
	}
	h1, err := ShotsHash(Fracture(routesFromWires(wires), 1, ModeLShape, Options{}).Shots)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := ShotsHash(Fracture(routesFromWires(rev), 1, ModeLShape, Options{}).Shots)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("shot hash depends on input order: %s vs %s", h1[:12], h2[:12])
	}
}

// TestHShapeEvenCycle: an H builds a 4-cycle in the pairing graph (both
// uprights mergeable with top and bottom bars through aligned corners).
// The exact matching must still save two shots.
func TestHShapeEvenCycle(t *testing.T) {
	routes := routesFromWires([]geom.Segment{
		geom.HSeg(1, 0, 0, 10), // bottom bar
		geom.HSeg(1, 9, 0, 10), // top bar
		geom.VSeg(1, 0, 0, 9),  // left upright (corner-aligned with both bars)
		geom.VSeg(1, 10, 0, 9), // right upright
	})
	res := Fracture(routes, 1, ModeLShape, Options{})
	if res.RectShots != 4 {
		t.Fatalf("rect baseline = %d, want 4", res.RectShots)
	}
	if res.ShotCount != 2 || res.LShots != 2 {
		t.Fatalf("H: %d shots (%d L), want 2 (2 L)", res.ShotCount, res.LShots)
	}
	if res.GreedyComponents != 0 {
		t.Errorf("H component fell back to greedy")
	}
	checkExact(t, routes, res, 1)
}

// TestFractureContextCancelled: a cancelled context aborts fracturing.
func TestFractureContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	routes := routesFromWires([]geom.Segment{geom.HSeg(1, 0, 0, 9)})
	if _, err := FractureContext(ctx, routes, 1, ModeLShape, Options{}); err == nil {
		t.Fatal("cancelled fracture returned nil error")
	}
}

// TestOddComponentBnB drives the branch-and-bound path with a forced
// odd-cycle pairing graph via the internal matcher. The 5-cycle's
// maximum matching has 2 pairs (5 shots -> 3).
func TestOddComponentBnB(t *testing.T) {
	adj := [][]int{
		{1, 4},
		{0, 2},
		{1, 3},
		{2, 4},
		{3, 0},
	}
	m := &matcher{
		pairing: []int{-1, -1, -1, -1, -1},
		nodes:   []int{0, 1, 2, 3, 4},
		pos:     make([]int, 5),
		adjOff:  []int{0},
	}
	for _, nb := range adj {
		m.adj = append(m.adj, nb...)
		m.adjOff = append(m.adjOff, len(m.adj))
	}
	res := &Result{}
	if err := m.matchBnB(context.Background(), res); err != nil {
		t.Fatal(err)
	}
	pairing := m.pairing
	pairs := 0
	for v, u := range pairing {
		if u >= 0 {
			if pairing[u] != v {
				t.Fatalf("pairing not mutual: %v", pairing)
			}
			pairs++
		}
	}
	if pairs != 4 { // 2 pairs, counted from both ends
		t.Fatalf("odd 5-cycle matched %d endpoints, want 4 (pairing %v)", pairs, pairing)
	}
	if res.MatchNodes == 0 {
		t.Error("branch and bound expanded no nodes")
	}
}

// TestEmptyRoutes: no geometry, no shots, zero totals.
func TestEmptyRoutes(t *testing.T) {
	res := Fracture(nil, 3, ModeLShape, Options{})
	if res.ShotCount != 0 || res.RectShots != 0 || res.Area != 0 || len(res.Shots) != 0 {
		t.Fatalf("empty input produced %+v", res)
	}
}

func TestParseMode(t *testing.T) {
	if m, err := ParseMode("rect"); err != nil || m != ModeRect {
		t.Errorf("ParseMode(rect) = %v, %v", m, err)
	}
	if m, err := ParseMode("lshape"); err != nil || m != ModeLShape {
		t.Errorf("ParseMode(lshape) = %v, %v", m, err)
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) succeeded")
	}
}

// TestEmptySpanWireSkipped: a hand-built wire with Span.Lo > Span.Hi
// covers no cell. Fracture must not emit an inverted shot for it, and
// InputRects must not report it as the normalized span.
func TestEmptySpanWireSkipped(t *testing.T) {
	empty := []geom.Segment{
		{Orient: geom.Horizontal, Layer: 1, Fixed: 3, Span: geom.Interval{Lo: 5, Hi: 2}},
		{Orient: geom.Vertical, Layer: 1, Fixed: 8, Span: geom.Interval{Lo: 9, Hi: 1}},
	}
	for _, mode := range []Mode{ModeRect, ModeLShape} {
		res := Fracture(routesFromWires(empty), 1, mode, Options{})
		if res.ShotCount != 0 || len(res.Shots) != 0 || res.Area != 0 {
			t.Fatalf("%s: empty-span wires fractured into %+v", mode, res.Shots)
		}
	}
	if rs := InputRects(routesFromWires(empty), 1); len(rs) != 0 {
		t.Fatalf("InputRects reported empty-span wires as %v", rs)
	}

	// Beside real geometry the empty wire changes nothing.
	real := geom.HSeg(1, 3, 0, 9)
	routes := routesFromWires(append([]geom.Segment{real}, empty...))
	res := Fracture(routes, 1, ModeLShape, Options{})
	want := Shot{Layer: 1, A: geom.Rect{X0: 0, Y0: 3, X1: 9, Y1: 3}, B: noRect}
	if len(res.Shots) != 1 || res.Shots[0] != want {
		t.Fatalf("shots = %+v, want [%+v]", res.Shots, want)
	}
	for _, s := range res.Shots {
		if s.Area() <= 0 {
			t.Fatalf("shot %+v has area %d", s, s.Area())
		}
	}
	checkExact(t, routes, res, 1)
}

package plan

import (
	"testing"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
)

func tp(x, y int) TilePoint { return TilePoint{x, y} }

func TestNewTileEdgeCanonical(t *testing.T) {
	e1 := NewTileEdge(tp(3, 2), tp(2, 2))
	e2 := NewTileEdge(tp(2, 2), tp(3, 2))
	if e1 != e2 {
		t.Fatalf("edges not canonical: %v vs %v", e1, e2)
	}
	if !e1.Horizontal() {
		t.Error("x-adjacent edge not horizontal")
	}
	v := NewTileEdge(tp(2, 3), tp(2, 2))
	if v.Horizontal() {
		t.Error("y-adjacent edge reported horizontal")
	}
	if v.A != tp(2, 2) {
		t.Errorf("canonical A = %v", v.A)
	}
}

func TestPathToEdges(t *testing.T) {
	path := []TilePoint{tp(0, 0), tp(1, 0), tp(1, 1), tp(1, 2)}
	edges := PathToEdges(path)
	if len(edges) != 3 {
		t.Fatalf("%d edges, want 3", len(edges))
	}
	if PathToEdges([]TilePoint{tp(0, 0)}) != nil {
		t.Error("single-point path should yield no edges")
	}
}

func TestDedupeEdges(t *testing.T) {
	e1 := NewTileEdge(tp(0, 0), tp(1, 0))
	e2 := NewTileEdge(tp(1, 0), tp(0, 0)) // same canonical edge
	e3 := NewTileEdge(tp(1, 0), tp(1, 1))
	out := DedupeEdges([]TileEdge{e1, e2, e3, e3})
	if len(out) != 2 {
		t.Fatalf("deduped to %d, want 2", len(out))
	}
}

func TestSegmentizeLShape(t *testing.T) {
	// Route: (0,0) -> (0,1) -> (0,2) -> (1,2) : vertical run then horizontal.
	edges := []TileEdge{
		NewTileEdge(tp(0, 0), tp(0, 1)),
		NewTileEdge(tp(0, 1), tp(0, 2)),
		NewTileEdge(tp(0, 2), tp(1, 2)),
	}
	segs := Segmentize(7, edges)
	if len(segs) != 2 {
		t.Fatalf("%d segs, want 2: %+v", len(segs), segs)
	}
	var v, h *GSeg
	for _, s := range segs {
		if s.Dir == geom.Vertical {
			v = s
		} else {
			h = s
		}
	}
	if v == nil || h == nil {
		t.Fatal("missing a direction")
	}
	if v.Panel != 0 || v.Span != (geom.Interval{Lo: 0, Hi: 2}) {
		t.Errorf("vertical seg = %+v", v)
	}
	if v.NetID != 7 {
		t.Errorf("NetID = %d", v.NetID)
	}
	// The high end of the vertical run at (0,2) connects right to (1,2):
	if !v.HiCrossR || v.HiCrossL || v.LoCrossL || v.LoCrossR {
		t.Errorf("cross flags = %+v", v)
	}
	if h.Panel != 2 || h.Span != (geom.Interval{Lo: 0, Hi: 1}) {
		t.Errorf("horizontal seg = %+v", h)
	}
}

func TestSegmentizeZShape(t *testing.T) {
	// (0,0)-(1,0) horizontal, (1,0)-(1,1) vertical, (1,1)-(2,1) horizontal.
	edges := []TileEdge{
		NewTileEdge(tp(0, 0), tp(1, 0)),
		NewTileEdge(tp(1, 0), tp(1, 1)),
		NewTileEdge(tp(1, 1), tp(2, 1)),
	}
	segs := Segmentize(0, edges)
	if len(segs) != 3 {
		t.Fatalf("%d segs, want 3", len(segs))
	}
	for _, s := range segs {
		if s.Dir == geom.Vertical {
			// Low end connects left (to column 0), high end connects right.
			if !s.LoCrossL || s.LoCrossR {
				t.Errorf("low-end flags: %+v", s)
			}
			if !s.HiCrossR || s.HiCrossL {
				t.Errorf("high-end flags: %+v", s)
			}
		}
	}
}

func TestSegmentizeDisjointRunsSameColumn(t *testing.T) {
	// Two vertical runs in column 2 separated by a gap, joined elsewhere.
	edges := []TileEdge{
		NewTileEdge(tp(2, 0), tp(2, 1)),
		NewTileEdge(tp(2, 3), tp(2, 4)),
	}
	segs := Segmentize(0, edges)
	if len(segs) != 2 {
		t.Fatalf("%d segs, want 2", len(segs))
	}
	if segs[0].Span == segs[1].Span {
		t.Error("runs merged across gap")
	}
}

func TestSegmentizeEmpty(t *testing.T) {
	if segs := Segmentize(0, nil); segs != nil {
		t.Error("empty route should yield no segments")
	}
}

func TestSegmentizeStraightThroughJunction(t *testing.T) {
	// Vertical run through a tile that also has a horizontal branch:
	// the run must not split at the junction (no artificial line end).
	edges := []TileEdge{
		NewTileEdge(tp(1, 0), tp(1, 1)),
		NewTileEdge(tp(1, 1), tp(1, 2)),
		NewTileEdge(tp(1, 1), tp(2, 1)), // branch
	}
	segs := Segmentize(0, edges)
	nVert := 0
	for _, s := range segs {
		if s.Dir == geom.Vertical {
			nVert++
			if s.Span != (geom.Interval{Lo: 0, Hi: 2}) {
				t.Errorf("vertical run split: %+v", s)
			}
		}
	}
	if nVert != 1 {
		t.Errorf("%d vertical segs, want 1", nVert)
	}
}

func TestLineEnds(t *testing.T) {
	edges := []TileEdge{
		NewTileEdge(tp(0, 0), tp(0, 1)),
		NewTileEdge(tp(0, 1), tp(0, 2)),
		NewTileEdge(tp(0, 2), tp(1, 2)),
	}
	segs := Segmentize(0, edges)
	ends := LineEnds(segs)
	if len(ends) != 2 {
		t.Fatalf("%d line ends, want 2", len(ends))
	}
	want := map[TilePoint]bool{tp(0, 0): true, tp(0, 2): true}
	for _, e := range ends {
		if !want[e] {
			t.Errorf("unexpected line end %v", e)
		}
	}
}

func TestLevel(t *testing.T) {
	f := grid.New(150, 150, 3) // 10x10 tiles
	cases := []struct {
		bbox geom.Rect
		want int
	}{
		{geom.Rect{X0: 0, Y0: 0, X1: 14, Y1: 14}, 0},   // one tile
		{geom.Rect{X0: 0, Y0: 0, X1: 29, Y1: 14}, 1},   // 2x1 tiles
		{geom.Rect{X0: 0, Y0: 0, X1: 29, Y1: 29}, 1},   // 2x2 tiles
		{geom.Rect{X0: 0, Y0: 0, X1: 59, Y1: 14}, 2},   // 4 tiles wide
		{geom.Rect{X0: 0, Y0: 0, X1: 149, Y1: 149}, 4}, // 10 tiles -> 2^4
		{geom.Rect{X0: 7, Y0: 7, X1: 7, Y1: 7}, 0},
	}
	for i, c := range cases {
		if got := Level(c.bbox, f); got != c.want {
			t.Errorf("case %d: Level = %d, want %d", i, got, c.want)
		}
	}
}

package geom

import (
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := NewInterval(7, 3)
	if iv.Lo != 3 || iv.Hi != 7 {
		t.Fatalf("NewInterval(7,3) = %+v, want [3,7]", iv)
	}
	if iv.Len() != 5 {
		t.Errorf("Len = %d, want 5", iv.Len())
	}
	if iv.Empty() {
		t.Error("non-empty interval reported Empty")
	}
	if !(Interval{5, 4}).Empty() {
		t.Error("[5,4] should be empty")
	}
	if (Interval{5, 4}).Len() != 0 {
		t.Error("empty interval should have Len 0")
	}
	for _, x := range []int{3, 5, 7} {
		if !iv.Contains(x) {
			t.Errorf("Contains(%d) = false", x)
		}
	}
	for _, x := range []int{2, 8, -1} {
		if iv.Contains(x) {
			t.Errorf("Contains(%d) = true", x)
		}
	}
}

func TestIntervalOverlapsIntersect(t *testing.T) {
	cases := []struct {
		a, b    Interval
		overlap bool
	}{
		{Interval{0, 5}, Interval{5, 9}, true},  // touch at one point
		{Interval{0, 5}, Interval{6, 9}, false}, // adjacent, disjoint
		{Interval{0, 9}, Interval{3, 4}, true},  // containment
		{Interval{3, 4}, Interval{0, 9}, true},
		{Interval{5, 4}, Interval{0, 9}, false}, // empty never overlaps
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.overlap {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", c.a, c.b, got, c.overlap)
		}
		if got := c.b.Overlaps(c.a); got != c.overlap {
			t.Errorf("Overlaps not symmetric for %v, %v", c.a, c.b)
		}
	}
	got := Interval{0, 5}.Intersect(Interval{3, 9})
	if got != (Interval{3, 5}) {
		t.Errorf("Intersect = %v, want [3,5]", got)
	}
}

func TestIntervalPropertyOverlapIffNonEmptyIntersection(t *testing.T) {
	f := func(a0, a1, b0, b1 int8) bool {
		a := NewInterval(int(a0), int(a1))
		b := NewInterval(int(b0), int(b1))
		return a.Overlaps(b) == !a.Intersect(b).Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalUnionCoversBoth(t *testing.T) {
	f := func(a0, a1, b0, b1 int8) bool {
		a := NewInterval(int(a0), int(a1))
		b := NewInterval(int(b0), int(b1))
		u := a.Union(b)
		return u.Contains(a.Lo) && u.Contains(a.Hi) && u.Contains(b.Lo) && u.Contains(b.Hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{5, 9}, Point{1, 2})
	if r != (Rect{1, 2, 5, 9}) {
		t.Fatalf("NewRect = %+v", r)
	}
	if r.W() != 5 || r.H() != 8 {
		t.Errorf("W,H = %d,%d want 5,8", r.W(), r.H())
	}
	if r.Area() != 40 {
		t.Errorf("Area = %d want 40", r.Area())
	}
	if !r.Contains(Point{1, 2}) || !r.Contains(Point{5, 9}) || !r.Contains(Point{3, 5}) {
		t.Error("Contains failed on corner/interior")
	}
	if r.Contains(Point{0, 2}) || r.Contains(Point{6, 9}) {
		t.Error("Contains succeeded outside")
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{{3, 7}, {1, 9}, {5, 2}}
	r := BoundingRect(pts)
	if r != (Rect{1, 2, 5, 9}) {
		t.Fatalf("BoundingRect = %+v", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("BoundingRect(nil) did not panic")
		}
	}()
	BoundingRect(nil)
}

func TestRectOverlapProperty(t *testing.T) {
	f := func(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 int8) bool {
		a := NewRect(Point{int(ax0), int(ay0)}, Point{int(ax1), int(ay1)})
		b := NewRect(Point{int(bx0), int(by0)}, Point{int(bx1), int(by1)})
		return a.Overlaps(b) == !a.Intersect(b).Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectUnionExpand(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{5, 5, 6, 6}
	u := a.Union(b)
	if u != (Rect{0, 0, 6, 6}) {
		t.Errorf("Union = %+v", u)
	}
	e := a.Expand(1)
	if e != (Rect{-1, -1, 3, 3}) {
		t.Errorf("Expand = %+v", e)
	}
	var empty Rect
	empty = Rect{1, 1, 0, 0}
	if got := empty.Union(a); got != a {
		t.Errorf("empty.Union(a) = %+v, want a", got)
	}
	if got := a.Union(empty); got != a {
		t.Errorf("a.Union(empty) = %+v, want a", got)
	}
}

func TestSegments(t *testing.T) {
	h := HSeg(1, 4, 9, 2)
	if h.Orient != Horizontal || h.Fixed != 4 || h.Span != (Interval{2, 9}) {
		t.Fatalf("HSeg = %+v", h)
	}
	lo, hi := h.Ends()
	if lo != (Point{2, 4}) || hi != (Point{9, 4}) {
		t.Errorf("Ends = %v,%v", lo, hi)
	}
	if h.Len() != 8 {
		t.Errorf("Len = %d want 8", h.Len())
	}
	if !h.Contains(Point{5, 4}) || h.Contains(Point{5, 5}) || h.Contains(Point{1, 4}) {
		t.Error("Contains wrong")
	}

	v := VSeg(2, 3, 0, 6)
	if v.Orient != Vertical || v.Layer != 2 {
		t.Fatalf("VSeg = %+v", v)
	}
	lo, hi = v.Ends()
	if lo != (Point{3, 0}) || hi != (Point{3, 6}) {
		t.Errorf("VSeg ends = %v,%v", lo, hi)
	}
	if v.Bounds() != (Rect{3, 0, 3, 6}) {
		t.Errorf("Bounds = %+v", v.Bounds())
	}
}

func TestManhattanDist(t *testing.T) {
	if d := (Point{0, 0}).ManhattanDist(Point{3, -4}); d != 7 {
		t.Errorf("dist = %d want 7", d)
	}
	f := func(ax, ay, bx, by int16) bool {
		a, b := Point{int(ax), int(ay)}, Point{int(bx), int(by)}
		return a.ManhattanDist(b) == b.ManhattanDist(a) && a.ManhattanDist(b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	if s := (Point{1, 2}).String(); s != "(1,2)" {
		t.Errorf("Point.String = %q", s)
	}
	if s := Horizontal.String(); s != "H" {
		t.Errorf("Horizontal.String = %q", s)
	}
	if s := Vertical.String(); s != "V" {
		t.Errorf("Vertical.String = %q", s)
	}
	if s := HSeg(1, 2, 3, 4).String(); s == "" {
		t.Error("Segment.String empty")
	}
}

func TestAbs(t *testing.T) {
	if Abs(-5) != 5 || Abs(5) != 5 || Abs(0) != 0 {
		t.Error("Abs wrong")
	}
}

func TestPointAdd(t *testing.T) {
	if got := (Point{1, 2}).Add(3, -4); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
}

func TestIntervalExpand(t *testing.T) {
	if got := (Interval{3, 5}).Expand(2); got != (Interval{1, 7}) {
		t.Errorf("Expand = %v", got)
	}
}

func TestIntervalUnionWithEmpty(t *testing.T) {
	empty := Interval{5, 2}
	full := Interval{1, 3}
	if got := empty.Union(full); got != full {
		t.Errorf("empty.Union = %v", got)
	}
	if got := full.Union(empty); got != full {
		t.Errorf("Union(empty) = %v", got)
	}
}

// Package geom provides the rectilinear geometry primitives used throughout
// the stitch-aware router: integer points, closed intervals, rectangles, and
// axis-parallel wire segments. All coordinates are integer track indices
// (one unit = one routing pitch).
package geom

import "fmt"

// Point is an integer grid location.
type Point struct {
	X, Y int
}

func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Add returns the translation of p by (dx, dy).
func (p Point) Add(dx, dy int) Point { return Point{p.X + dx, p.Y + dy} }

// ManhattanDist returns the L1 distance between p and q.
func (p Point) ManhattanDist(q Point) int {
	return Abs(p.X-q.X) + Abs(p.Y-q.Y)
}

// Interval is a closed integer interval [Lo, Hi]. An interval with Lo > Hi
// is empty.
type Interval struct {
	Lo, Hi int
}

// NewInterval returns the closed interval covering both a and b.
func NewInterval(a, b int) Interval {
	if a > b {
		a, b = b, a
	}
	return Interval{a, b}
}

// Empty reports whether the interval contains no integers.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Len returns the number of integers in the interval (0 if empty).
func (iv Interval) Len() int {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// Contains reports whether x lies in [Lo, Hi].
func (iv Interval) Contains(x int) bool { return iv.Lo <= x && x <= iv.Hi }

// Overlaps reports whether the two closed intervals share at least one
// integer.
func (iv Interval) Overlaps(o Interval) bool {
	return !iv.Empty() && !o.Empty() && iv.Lo <= o.Hi && o.Lo <= iv.Hi
}

// Intersect returns the common sub-interval (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{max(iv.Lo, o.Lo), min(iv.Hi, o.Hi)}
}

// Union returns the smallest interval covering both (they need not overlap).
func (iv Interval) Union(o Interval) Interval {
	if iv.Empty() {
		return o
	}
	if o.Empty() {
		return iv
	}
	return Interval{min(iv.Lo, o.Lo), max(iv.Hi, o.Hi)}
}

// Expand grows the interval by d on both sides.
func (iv Interval) Expand(d int) Interval { return Interval{iv.Lo - d, iv.Hi + d} }

// Rect is a closed integer rectangle [X0,X1] x [Y0,Y1]. A rect with
// X0 > X1 or Y0 > Y1 is empty.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// NewRect returns the rectangle spanning the two corner points.
func NewRect(a, b Point) Rect {
	r := Rect{a.X, a.Y, b.X, b.Y}
	if r.X0 > r.X1 {
		r.X0, r.X1 = r.X1, r.X0
	}
	if r.Y0 > r.Y1 {
		r.Y0, r.Y1 = r.Y1, r.Y0
	}
	return r
}

// BoundingRect returns the smallest rectangle covering all points.
// It panics if pts is empty.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of no points")
	}
	r := Rect{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		r.X0 = min(r.X0, p.X)
		r.X1 = max(r.X1, p.X)
		r.Y0 = min(r.Y0, p.Y)
		r.Y1 = max(r.Y1, p.Y)
	}
	return r
}

// Empty reports whether the rectangle contains no points.
func (r Rect) Empty() bool { return r.X0 > r.X1 || r.Y0 > r.Y1 }

// W returns the number of integer columns covered.
func (r Rect) W() int { return Interval{r.X0, r.X1}.Len() }

// H returns the number of integer rows covered.
func (r Rect) H() int { return Interval{r.Y0, r.Y1}.Len() }

// Area returns the number of integer points covered.
func (r Rect) Area() int { return r.W() * r.H() }

// Contains reports whether p lies inside the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return r.X0 <= p.X && p.X <= r.X1 && r.Y0 <= p.Y && p.Y <= r.Y1
}

// Overlaps reports whether the two closed rectangles share a point.
func (r Rect) Overlaps(o Rect) bool {
	return !r.Empty() && !o.Empty() &&
		r.X0 <= o.X1 && o.X0 <= r.X1 && r.Y0 <= o.Y1 && o.Y0 <= r.Y1
}

// Intersect returns the common sub-rectangle (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	return Rect{max(r.X0, o.X0), max(r.Y0, o.Y0), min(r.X1, o.X1), min(r.Y1, o.Y1)}
}

// Union returns the smallest rectangle covering both.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Rect{min(r.X0, o.X0), min(r.Y0, o.Y0), max(r.X1, o.X1), max(r.Y1, o.Y1)}
}

// Expand grows the rectangle by d in all four directions.
func (r Rect) Expand(d int) Rect { return Rect{r.X0 - d, r.Y0 - d, r.X1 + d, r.Y1 + d} }

// Orientation of a wire segment.
type Orientation uint8

const (
	// Horizontal segments run along the x axis at fixed y.
	Horizontal Orientation = iota
	// Vertical segments run along the y axis at fixed x.
	Vertical
)

func (o Orientation) String() string {
	if o == Horizontal {
		return "H"
	}
	return "V"
}

// Segment is an axis-parallel wire on a routing layer. For a horizontal
// segment, Fixed is the y track and Span covers x; for a vertical segment,
// Fixed is the x track and Span covers y. Span is normalized (Lo <= Hi).
type Segment struct {
	Orient Orientation
	Layer  int
	Fixed  int
	Span   Interval
}

// HSeg returns a horizontal segment on layer l at track y covering [x0, x1].
func HSeg(l, y, x0, x1 int) Segment {
	return Segment{Horizontal, l, y, NewInterval(x0, x1)}
}

// VSeg returns a vertical segment on layer l at track x covering [y0, y1].
func VSeg(l, x, y0, y1 int) Segment {
	return Segment{Vertical, l, x, NewInterval(y0, y1)}
}

// Ends returns the two endpoints of the segment (low end first).
func (s Segment) Ends() (Point, Point) {
	if s.Orient == Horizontal {
		return Point{s.Span.Lo, s.Fixed}, Point{s.Span.Hi, s.Fixed}
	}
	return Point{s.Fixed, s.Span.Lo}, Point{s.Fixed, s.Span.Hi}
}

// Len returns the number of grid points covered by the segment.
func (s Segment) Len() int { return s.Span.Len() }

// Contains reports whether the grid point p on the segment's layer is
// covered by the segment.
func (s Segment) Contains(p Point) bool {
	if s.Orient == Horizontal {
		return p.Y == s.Fixed && s.Span.Contains(p.X)
	}
	return p.X == s.Fixed && s.Span.Contains(p.Y)
}

// Bounds returns the covering rectangle of the segment.
func (s Segment) Bounds() Rect {
	a, b := s.Ends()
	return NewRect(a, b)
}

func (s Segment) String() string {
	a, b := s.Ends()
	return fmt.Sprintf("%s[L%d %s-%s]", s.Orient, s.Layer, a, b)
}

// Abs returns the absolute value of x.
func Abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Clamp limits v to [lo, hi]. Unlike min(max(v, lo), hi), it returns lo
// when lo > hi and v < lo.
func Clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

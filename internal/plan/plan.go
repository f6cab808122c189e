// Package plan defines the intermediate representations that flow between
// the routing stages of the stitch-aware framework (Fig. 6 of the paper):
// per-net global routes on the tile graph, the global segments consumed by
// layer and track assignment, and the final detailed geometry consumed by
// the DRC.
package plan

import (
	"sort"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
)

// TilePoint is a vertex of the global routing graph (a global tile).
type TilePoint struct {
	TX, TY int
}

// TileEdge is an edge between two adjacent tiles, stored in canonical order
// (A < B lexicographically).
type TileEdge struct {
	A, B TilePoint
}

// NewTileEdge returns the canonical edge between two adjacent tiles.
func NewTileEdge(a, b TilePoint) TileEdge {
	if b.TX < a.TX || (b.TX == a.TX && b.TY < a.TY) {
		a, b = b, a
	}
	return TileEdge{a, b}
}

// Horizontal reports whether the edge crosses a vertical tile boundary
// (i.e. connects horizontally adjacent tiles).
func (e TileEdge) Horizontal() bool { return e.A.TY == e.B.TY }

// GSeg is a global wire segment: a maximal straight run of a net's global
// route, the unit of layer and track assignment. For a vertical segment,
// Panel is the tile column and Span the covered tile rows; for a horizontal
// segment, Panel is the tile row and Span the covered tile columns.
type GSeg struct {
	NetID  int
	Dir    geom.Orientation
	Panel  int
	Span   geom.Interval
	Layer  int   // assigned layer, 0 until layer assignment
	Tracks []int // per tile of Span: track within the panel, nil until track assignment
	// BadEnds counts this segment's unavoidable bad ends after track
	// assignment; Ripped marks segments dropped from the plan (the net is
	// then routed directly in detailed routing).
	BadEnds int
	Ripped  bool

	// End-connection flags for vertical segments, used for bad-end
	// detection (§III-C): whether the horizontal connection at the low/high
	// end crosses the panel's left/right stitching line.
	LoCrossL, LoCrossR bool
	HiCrossL, HiCrossR bool
}

// NetPlan carries one net through the routing pipeline.
type NetPlan struct {
	NetID int
	Level int // multilevel coarsening level at which the net becomes local
	// Edges is the net's global route: a tree of tile edges. Empty for
	// nets local to a single tile.
	Edges []TileEdge
	// PinTiles are the tiles containing the net's pins (deduplicated).
	PinTiles []TilePoint
	// Segs are the net's global segments derived from Edges.
	Segs []*GSeg
	// BadEnds counts the unavoidable bad ends left by track assignment;
	// stitch-aware detailed routing prioritizes nets with more (§III-D2).
	BadEnds int
}

// Via connects Layer and Layer+1 at a track point.
type Via struct {
	X, Y  int
	Layer int
}

// NetRoute is the final detailed geometry of a net.
type NetRoute struct {
	NetID  int
	Routed bool
	Wires  []geom.Segment
	Vias   []Via
}

// Segmentize decomposes a net's global route tree into maximal straight
// global segments and computes the end-connection flags used for bad-end
// detection. Pin tiles terminate runs the same way turns do only when the
// route actually stops there; pins along a straight run do not split it
// (splitting would only create artificial line ends).
func Segmentize(netID int, edges []TileEdge) []*GSeg {
	if len(edges) == 0 {
		return nil
	}
	type node struct {
		h, v []TilePoint // horizontal / vertical neighbors
	}
	nodes := make(map[TilePoint]*node, len(edges)+1)
	get := func(p TilePoint) *node {
		n := nodes[p]
		if n == nil {
			n = &node{}
			nodes[p] = n
		}
		return n
	}
	for _, e := range edges {
		if e.Horizontal() {
			get(e.A).h = append(get(e.A).h, e.B)
			get(e.B).h = append(get(e.B).h, e.A)
		} else {
			get(e.A).v = append(get(e.A).v, e.B)
			get(e.B).v = append(get(e.B).v, e.A)
		}
	}

	var segs []*GSeg

	// Vertical runs: maximal chains of vertical edges per tile column.
	// Collect the vertical edges per column, then merge contiguous spans.
	vert := make(map[int][]int) // column -> sorted list of edge low rows
	horiz := make(map[int][]int)
	for _, e := range edges {
		if e.Horizontal() {
			horiz[e.A.TY] = append(horiz[e.A.TY], e.A.TX)
		} else {
			vert[e.A.TX] = append(vert[e.A.TX], e.A.TY)
		}
	}
	cols := make([]int, 0, len(vert))
	for c := range vert {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	for _, c := range cols {
		rows := vert[c]
		sort.Ints(rows)
		lo := rows[0]
		prev := rows[0]
		flush := func(lo, hi int) {
			s := &GSeg{NetID: netID, Dir: geom.Vertical, Panel: c, Span: geom.Interval{Lo: lo, Hi: hi + 1}}
			// End flags: does a horizontal edge attach at the end tile?
			loTile := TilePoint{c, lo}
			hiTile := TilePoint{c, hi + 1}
			if n := nodes[loTile]; n != nil {
				for _, q := range n.h {
					if q.TX < c {
						s.LoCrossL = true
					} else {
						s.LoCrossR = true
					}
				}
			}
			if n := nodes[hiTile]; n != nil {
				for _, q := range n.h {
					if q.TX < c {
						s.HiCrossL = true
					} else {
						s.HiCrossR = true
					}
				}
			}
			segs = append(segs, s)
		}
		for _, r := range rows[1:] {
			if r != prev+1 {
				flush(lo, prev)
				lo = r
			}
			prev = r
		}
		flush(lo, prev)
	}

	rowsKeys := make([]int, 0, len(horiz))
	for r := range horiz {
		rowsKeys = append(rowsKeys, r)
	}
	sort.Ints(rowsKeys)
	for _, r := range rowsKeys {
		cs := horiz[r]
		sort.Ints(cs)
		lo := cs[0]
		prev := cs[0]
		flush := func(lo, hi int) {
			segs = append(segs, &GSeg{NetID: netID, Dir: geom.Horizontal, Panel: r, Span: geom.Interval{Lo: lo, Hi: hi + 1}})
		}
		for _, c := range cs[1:] {
			if c != prev+1 {
				flush(lo, prev)
				lo = c
			}
			prev = c
		}
		flush(lo, prev)
	}
	return segs
}

// LineEnds returns the tiles holding the line ends of the net's vertical
// segments — the quantity charged against the vertex capacity of the
// stitch-aware global routing graph (§III-A).
func LineEnds(segs []*GSeg) []TilePoint {
	var ends []TilePoint
	for _, s := range segs {
		if s.Dir != geom.Vertical {
			continue
		}
		ends = append(ends, TilePoint{s.Panel, s.Span.Lo}, TilePoint{s.Panel, s.Span.Hi})
	}
	return ends
}

// PathToEdges converts a tile-point path (successive adjacent tiles) into
// canonical edges.
func PathToEdges(path []TilePoint) []TileEdge {
	if len(path) < 2 {
		return nil
	}
	edges := make([]TileEdge, 0, len(path)-1)
	for i := 1; i < len(path); i++ {
		edges = append(edges, NewTileEdge(path[i-1], path[i]))
	}
	return edges
}

// DedupeEdges returns the unique edges of the list, preserving first-seen
// order.
func DedupeEdges(edges []TileEdge) []TileEdge {
	seen := make(map[TileEdge]bool, len(edges))
	out := edges[:0:0]
	for _, e := range edges {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// Level returns the bottom-up coarsening level at which a net with the
// given pin bounding box (in tile coordinates) becomes local: the smallest
// i such that the box fits in a 2^i × 2^i block of tiles (§II-B).
func Level(bbox geom.Rect, f *grid.Fabric) int {
	w := bbox.X1/f.StitchPitch - bbox.X0/f.StitchPitch + 1
	h := bbox.Y1/f.StitchPitch - bbox.Y0/f.StitchPitch + 1
	level := 0
	for size := 1; size < w || size < h; size *= 2 {
		level++
	}
	return level
}

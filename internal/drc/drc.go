// Package drc checks final routed geometry against the three stitch-aware
// routing constraints (§II-A):
//
//  1. Via constraint — vias must not sit on a stitching line. Violations
//     are unavoidable at fixed pins (the router may not move them) and the
//     report separates pin-forced violations from genuine router errors.
//  2. Vertical routing constraint — no wire may run vertically along a
//     stitching line.
//  3. Short polygon constraint — a horizontal wire cut by a stitching
//     line must not have a line end inside that line's stitch-unfriendly
//     region with a landing via.
//
// The checker also reports routability and total wirelength, the remaining
// columns of Tables III, VII and VIII.
package drc

import (
	"math"

	"stitchroute/internal/detail"
	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// Report is the full-chip violation summary.
type Report struct {
	TotalNets  int
	RoutedNets int
	// ViaViolations counts vias on stitching-line columns (the #VV column;
	// these occur only at fixed pins in a legal solution).
	ViaViolations int
	// ViaViolationsOffPin counts via violations NOT at a pin of the net —
	// zero for any correct router, stitch-aware or baseline.
	ViaViolationsOffPin int
	// VertRouteViolations counts vertical wires running on stitching
	// lines — zero for any correct router.
	VertRouteViolations int
	// ShortPolygons counts stitch-cut horizontal wire ends in SURs with
	// landing vias (the #SP column).
	ShortPolygons int
	// SPSites locates the first short polygons found (capped), for the
	// zoomed Fig. 16 views.
	SPSites []geom.Point
	// Wirelength is the total routed track length.
	Wirelength int64
	// Vias is the total via count (the paper's secondary minimization
	// objective, Problem 1).
	Vias int
}

// maxSPSites caps the recorded short-polygon locations.
const maxSPSites = 256

// Routability returns routed/total as a percentage.
func (r Report) Routability() float64 {
	if r.TotalNets == 0 {
		return 100
	}
	return 100 * float64(r.RoutedNets) / float64(r.TotalNets)
}

// Check inspects every routed net of the circuit.
func Check(c *netlist.Circuit, routes []plan.NetRoute) Report {
	rep, _ := CheckSlots(c, routes)
	return rep
}

// CheckSlots is Check that also returns the slots whose routes have
// short polygons, in slot order and uncapped: with the report, the base
// a later Update starts from. The list is never nil. One scratch serves
// the whole call, so the per-net checks allocate only while it grows.
func CheckSlots(c *netlist.Circuit, routes []plan.NetRoute) (Report, []int) {
	rep := Report{TotalNets: len(c.Nets)}
	sc := checkScratch{siteCap: maxSPSites}
	slots := []int{}
	for i := range routes {
		if checkNet(c.Fabric, &routes[i], pinsAt(c, i), &rep, &sc) {
			slots = append(slots, i)
		}
	}
	rep.SPSites = sc.sites
	return rep, slots
}

// Base is a checked chip an Update starts from: its circuit and routes,
// their report and their short-polygon slots (CheckSlots).
type Base struct {
	Circuit *netlist.Circuit
	Routes  []plan.NetRoute
	Report  Report
	// SPSlots is nil when the base carries no slot list; Update then
	// checks the whole chip.
	SPSlots []int
}

// Update returns CheckSlots(c, routes), computed from base instead of
// from every net. from.Parent(i) is the base slot whose route and pins
// slot i of c carries verbatim, or -1 when slot i is checked afresh. A
// net's contribution to the report depends only on the fabric, its
// route and its pins, so the counts are the base's, minus the stale
// base slots (those no slot keeps), plus the fresh slots. SPSites are
// rebuilt in slot order from the fresh slots and the kept slots in
// base.SPSlots, so the report equals a full check's exactly. c must be
// on base's fabric.
func Update(base Base, c *netlist.Circuit, routes []plan.NetRoute, from plan.Match) (Report, []int) {
	if base.SPSlots == nil {
		return CheckSlots(c, routes)
	}
	hasSP := make([]bool, len(base.Routes))
	for _, p := range base.SPSlots {
		hasSP[p] = true
	}

	// What the stale base slots contributed; their sites are not
	// wanted.
	var gone Report
	var sc checkScratch
	for p, stale := range from.Stale(len(base.Routes)) {
		if stale {
			checkNet(base.Circuit.Fabric, &base.Routes[p], pinsAt(base.Circuit, p), &gone, &sc)
		}
	}

	// Walk c's slots in order: fresh slots are checked into fresh;
	// kept slots with short polygons are re-checked, into a report
	// that is dropped, only while the sites are not yet capped.
	var fresh, again Report
	sc.siteCap = maxSPSites
	slots := []int{}
	for i := range routes {
		p := from.Parent(i)
		switch {
		case p < 0:
			if checkNet(c.Fabric, &routes[i], pinsAt(c, i), &fresh, &sc) {
				slots = append(slots, i)
			}
		case hasSP[p]:
			if len(sc.sites) < sc.siteCap {
				checkNet(c.Fabric, &routes[i], pinsAt(c, i), &again, &sc)
			}
			slots = append(slots, i)
		}
	}

	rep := base.Report
	rep.TotalNets = len(c.Nets)
	rep.add(&fresh, 1)
	rep.add(&gone, -1)
	rep.SPSites = sc.sites
	return rep, slots
}

// add adds sign times o's per-net counts to r.
func (r *Report) add(o *Report, sign int) {
	r.RoutedNets += sign * o.RoutedNets
	r.ViaViolations += sign * o.ViaViolations
	r.ViaViolationsOffPin += sign * o.ViaViolationsOffPin
	r.VertRouteViolations += sign * o.VertRouteViolations
	r.ShortPolygons += sign * o.ShortPolygons
	r.Wirelength += int64(sign) * o.Wirelength
	r.Vias += sign * o.Vias
}

// pinsAt returns the pins of slot i, none for a slot past the nets.
func pinsAt(c *netlist.Circuit, i int) []netlist.Pin {
	if i < len(c.Nets) {
		return c.Nets[i].Pins
	}
	return nil
}

// checkScratch is a check's per-call scratch: the wire merger and the
// short-polygon sites, at most siteCap of them, which become the
// report's SPSites.
type checkScratch struct {
	merge   detail.WireMerger
	sites   []geom.Point
	siteCap int
}

// checkNet adds one net's contribution to rep and its short-polygon
// sites to sc, and reports whether the net has a short polygon.
func checkNet(f *grid.Fabric, rt *plan.NetRoute, pins []netlist.Pin, rep *Report, sc *checkScratch) bool {
	if rt.Routed {
		rep.RoutedNets++
	}
	sp := rep.ShortPolygons
	merged := sc.merge.Merge(rt.Wires)
	for _, w := range merged {
		rep.Wirelength += int64(w.Span.Len() - 1)
	}

	// Via constraint.
	rep.Vias += len(rt.Vias)
	for _, v := range rt.Vias {
		if f.IsStitchCol(v.X) {
			rep.ViaViolations++
			if !hasPinAt(pins, v.X, v.Y) {
				rep.ViaViolationsOffPin++
			}
		}
	}

	// Vertical routing constraint.
	for _, w := range merged {
		if w.Orient == geom.Vertical && f.IsStitchCol(w.Fixed) && w.Span.Len() > 1 {
			rep.VertRouteViolations++
		}
	}

	// Short polygon constraint: for each maximal horizontal wire, find the
	// stitching lines that cut it; an end within ε of its cutting line
	// with a landing via is a short polygon.
	for _, w := range merged {
		if w.Orient != geom.Horizontal {
			continue
		}
		lo, hi := w.Span.Lo, w.Span.Hi
		for _, end := range [2]int{lo, hi} {
			s, d := f.NearestStitch(end)
			if d == 0 || d > f.SUREps {
				continue
			}
			// The nearest stitching line must actually cut the wire.
			if s <= lo || s >= hi {
				continue
			}
			// Landing via at the end, touching this wire's layer.
			if hasViaAt(rt.Vias, end, w.Fixed, w.Layer) {
				rep.ShortPolygons++
				if len(sc.sites) < sc.siteCap {
					sc.sites = append(sc.sites, geom.Point{X: end, Y: w.Fixed})
				}
			}
		}
	}
	return rep.ShortPolygons > sp
}

// hasPinAt reports whether some pin sits at (x, y), on any layer.
func hasPinAt(pins []netlist.Pin, x, y int) bool {
	for _, p := range pins {
		if p.X == x && p.Y == y {
			return true
		}
	}
	return false
}

// hasViaAt reports whether some via touches layer l at (x, y): a via on
// layer v joins layers v and v+1.
func hasViaAt(vias []plan.Via, x, y, l int) bool {
	for _, v := range vias {
		if v.X == x && v.Y == y && (v.Layer == l || v.Layer+1 == l) {
			return true
		}
	}
	return false
}

// CheckShorts counts track cells covered by wires of two or more
// different nets — electrical shorts: each cover of a cell by a net
// other than the first to cover it counts once. A correct router always
// returns zero; the function exists for integration tests and debugging,
// and is kept out of Check because it maps every routed cell.
//
// The cell map is a dense grid over the wires' bounding box, on every
// layer they use, when the box holds at most shortsDense cells per wire
// cell — as it does for any routed chip, where the grid is at most the
// detailed router's own occupancy grid (5.3 MB on S38584, where a hash
// map of the same cells allocated 84 MB). Routes read from a file can
// put a few wires far apart, so sparser routes, and net IDs that do not
// fit the grid's int32 owners, use a hash map.
func CheckShorts(routes []plan.NetRoute) int {
	box := geom.Rect{X0: math.MaxInt, Y0: math.MaxInt, X1: math.MinInt, Y1: math.MinInt}
	l0, l1 := math.MaxInt, math.MinInt
	cells := 0
	for i := range routes {
		if id := routes[i].NetID; id < 0 || id >= math.MaxInt32 {
			return checkShortsMap(routes)
		}
		for _, w := range routes[i].Wires {
			if w.Span.Empty() {
				continue
			}
			b := w.Bounds()
			box = geom.Rect{X0: min(box.X0, b.X0), Y0: min(box.Y0, b.Y0), X1: max(box.X1, b.X1), Y1: max(box.Y1, b.Y1)}
			l0, l1 = min(l0, w.Layer), max(l1, w.Layer)
			cells += w.Span.Len()
		}
	}
	if cells == 0 {
		return 0
	}
	nx, ny := box.X1-box.X0+1, box.Y1-box.Y0+1
	if float64(nx)*float64(ny)*float64(l1-l0+1) > shortsDense*float64(cells) {
		return checkShortsMap(routes)
	}
	owner := make([]int32, nx*ny*(l1-l0+1)) // ID + 1 of the first net to cover the cell; 0 = none
	shorts := 0
	for i := range routes {
		id := int32(routes[i].NetID) + 1
		for _, w := range routes[i].Wires {
			if w.Span.Empty() {
				continue
			}
			b := w.Bounds()
			k := ((w.Layer-l0)*ny+b.Y0-box.Y0)*nx + b.X0 - box.X0
			step := 1
			if w.Orient != geom.Horizontal {
				step = nx
			}
			for n := w.Span.Len(); n > 0; n-- {
				switch owner[k] {
				case 0:
					owner[k] = id
				case id:
				default:
					shorts++
				}
				k += step
			}
		}
	}
	return shorts
}

// shortsDense bounds the bounding-box cells per wire cell for which
// CheckShorts maps cells with a dense grid: at 16 the grid's 4-byte
// owners cost at most 64 bytes per wire cell, about what the hash map
// costs per cell.
const shortsDense = 16

// checkShortsMap is CheckShorts with a hash map of the covered cells.
func checkShortsMap(routes []plan.NetRoute) int {
	owner := make(map[[3]int]int32)
	shorts := 0
	for i := range routes {
		id := int32(routes[i].NetID)
		for _, w := range routes[i].Wires {
			l := w.Layer
			if w.Orient == geom.Horizontal {
				for x := w.Span.Lo; x <= w.Span.Hi; x++ {
					shorts += claim(owner, [3]int{x, w.Fixed, l}, id)
				}
			} else {
				for y := w.Span.Lo; y <= w.Span.Hi; y++ {
					shorts += claim(owner, [3]int{w.Fixed, y, l}, id)
				}
			}
		}
	}
	return shorts
}

func claim(owner map[[3]int]int32, cell [3]int, id int32) int {
	if prev, ok := owner[cell]; ok {
		if prev != id {
			return 1
		}
		return 0
	}
	owner[cell] = id
	return 0
}

// CheckConnectivity verifies that each net marked routed actually connects
// all its pins through its geometry (wires sharing cells on a layer, vias
// linking adjacent layers). It returns the number of routed nets that are
// in fact disconnected — zero for a correct router. Like CheckShorts it
// is meant for tests and debugging.
//
// One scratch serves every net: a stamped window over the net's wire
// bounding box, sized once for the largest such box, and a union-find
// forest over the net's wires. A hash map of cells per net allocated
// 94 MB on a routed S38584. The window is clipped to the fabric, so
// routes read from a file cannot make it larger than the chip: wire
// cells off the chip join nothing, and a pin is never off the chip.
func CheckConnectivity(c *netlist.Circuit, routes []plan.NetRoute) int {
	var sc connScratch
	size := 0
	for i := range routes {
		if routes[i].Routed {
			size = max(size, sc.window(c.Fabric, routes[i].Wires))
		}
	}
	sc.owner = make([]owner, size)
	bad := 0
	for i := range routes {
		if !routes[i].Routed {
			continue
		}
		if i >= len(c.Nets) || !sc.connected(c.Fabric, &routes[i], c.Nets[i]) {
			bad++
		}
	}
	return bad
}

// connScratch is CheckConnectivity's scratch. The window is the current
// net's wire bounding box: x0, y0 and l0 are its origin, nx, ny and nl
// its extent in cells.
type connScratch struct {
	owner      []owner
	stamp      int32   // the current net's stamp; owner entries with another are empty
	parent     []int32 // union-find forest over the current net's wires
	x0, y0, l0 int
	nx, ny, nl int
}

// owner records the first wire of the stamped net to cover a cell.
type owner struct{ stamp, wire int32 }

// window sets the scratch's window to the bounding box of the wires'
// cells, clipped to the fabric, and returns its cell count.
func (sc *connScratch) window(f *grid.Fabric, wires []geom.Segment) int {
	box := geom.Rect{X0: math.MaxInt, Y0: math.MaxInt, X1: math.MinInt, Y1: math.MinInt}
	l0, l1 := math.MaxInt, math.MinInt
	for _, w := range wires {
		if w.Span.Empty() {
			continue
		}
		b := w.Bounds()
		box = geom.Rect{X0: min(box.X0, b.X0), Y0: min(box.Y0, b.Y0), X1: max(box.X1, b.X1), Y1: max(box.Y1, b.Y1)}
		l0, l1 = min(l0, w.Layer), max(l1, w.Layer)
	}
	if l0 > l1 { // no wire has a cell
		sc.nx, sc.ny, sc.nl = 0, 0, 0
		return 0
	}
	sc.x0, sc.y0, sc.l0 = max(box.X0, 0), max(box.Y0, 0), max(l0, 1)
	sc.nx = max(min(box.X1, f.XTracks-1)-sc.x0+1, 0)
	sc.ny = max(min(box.Y1, f.YTracks-1)-sc.y0+1, 0)
	sc.nl = max(min(l1, f.Layers)-sc.l0+1, 0)
	return sc.nx * sc.ny * sc.nl
}

// at returns the owner entry of cell (x, y) on layer l, or nil when the
// cell is outside the window.
func (sc *connScratch) at(x, y, l int) *owner {
	x, y, l = x-sc.x0, y-sc.y0, l-sc.l0
	if x < 0 || x >= sc.nx || y < 0 || y >= sc.ny || l < 0 || l >= sc.nl {
		return nil
	}
	return &sc.owner[(l*sc.ny+y)*sc.nx+x]
}

// covered returns the wire covering cell (x, y) on layer l, or -1.
func (sc *connScratch) covered(x, y, l int) int {
	if o := sc.at(x, y, l); o != nil && o.stamp == sc.stamp {
		return int(o.wire)
	}
	return -1
}

func (sc *connScratch) find(x int) int {
	parent := sc.parent
	for int(parent[x]) != x {
		parent[x] = parent[parent[x]]
		x = int(parent[x])
	}
	return x
}

func (sc *connScratch) union(a, b int) { sc.parent[sc.find(a)] = int32(sc.find(b)) }

// connected reports whether the route's geometry joins all of the net's
// pins: every pin lies on a wire cell, and all those wires are one
// component.
func (sc *connScratch) connected(f *grid.Fabric, rt *plan.NetRoute, net *netlist.Net) bool {
	sc.window(f, rt.Wires)
	sc.stamp++
	if cap(sc.parent) < len(rt.Wires) {
		sc.parent = make([]int32, len(rt.Wires))
	}
	sc.parent = sc.parent[:len(rt.Wires)]
	for i := range sc.parent {
		sc.parent[i] = int32(i)
	}
	claim := func(i, x, y, l int) {
		o := sc.at(x, y, l)
		switch {
		case o == nil: // off the chip
		case o.stamp == sc.stamp:
			sc.union(i, int(o.wire))
		default:
			*o = owner{stamp: sc.stamp, wire: int32(i)}
		}
	}
	for i, w := range rt.Wires {
		if w.Orient == geom.Horizontal {
			for x := max(w.Span.Lo, sc.x0); x <= min(w.Span.Hi, sc.x0+sc.nx-1); x++ {
				claim(i, x, w.Fixed, w.Layer)
			}
		} else {
			for y := max(w.Span.Lo, sc.y0); y <= min(w.Span.Hi, sc.y0+sc.ny-1); y++ {
				claim(i, w.Fixed, y, w.Layer)
			}
		}
	}
	for _, v := range rt.Vias {
		a, b := sc.covered(v.X, v.Y, v.Layer), sc.covered(v.X, v.Y, v.Layer+1)
		if a >= 0 && b >= 0 {
			sc.union(a, b)
		}
	}
	root := -1
	for _, p := range net.Pins {
		w := sc.covered(p.X, p.Y, p.Layer)
		if w < 0 {
			return false
		}
		if root == -1 {
			root = sc.find(w)
		} else if sc.find(w) != root {
			return false
		}
	}
	return true
}

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
// from every net. kept[i] is the base slot whose route and pins slot i
// of c carries verbatim, or -1 when slot i is checked afresh. A net's
// contribution to the report depends only on the fabric, its route and
// its pins, so the counts are the base's, minus the base slots no slot
// keeps, plus the fresh slots. SPSites are rebuilt in slot order from
// the fresh slots and the kept slots in base.SPSlots, so the report
// equals a full check's exactly. c must be on base's fabric.
func Update(base Base, c *netlist.Circuit, routes []plan.NetRoute, kept []int) (Report, []int) {
	if base.SPSlots == nil {
		return CheckSlots(c, routes)
	}
	const (
		isKept = 1 << iota
		hasSP
	)
	flags := make([]uint8, len(base.Routes))
	for _, p := range kept {
		if p >= 0 {
			flags[p] |= isKept
		}
	}
	for _, p := range base.SPSlots {
		flags[p] |= hasSP
	}

	// What the dropped base slots contributed; their sites are not
	// wanted.
	var gone Report
	var sc checkScratch
	for p := range base.Routes {
		if flags[p]&isKept == 0 {
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
		p := -1
		if i < len(kept) {
			p = kept[i]
		}
		switch {
		case p < 0:
			if checkNet(c.Fabric, &routes[i], pinsAt(c, i), &fresh, &sc) {
				slots = append(slots, i)
			}
		case flags[p]&hasSP != 0:
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
func CheckConnectivity(c *netlist.Circuit, routes []plan.NetRoute) int {
	bad := 0
	for i := range routes {
		if !routes[i].Routed {
			continue
		}
		if i >= len(c.Nets) || !netConnected(&routes[i], c.Nets[i]) {
			bad++
		}
	}
	return bad
}

func netConnected(rt *plan.NetRoute, net *netlist.Net) bool {
	type cell3 struct{ x, y, l int }
	cells := map[cell3]int{}
	parent := []int{}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	touch := func(c cell3) int {
		if id, ok := cells[c]; ok {
			return id
		}
		id := len(parent)
		parent = append(parent, id)
		cells[c] = id
		return id
	}
	for _, w := range rt.Wires {
		prev := -1
		if w.Orient == geom.Horizontal {
			for x := w.Span.Lo; x <= w.Span.Hi; x++ {
				id := touch(cell3{x, w.Fixed, w.Layer})
				if prev >= 0 {
					union(prev, id)
				}
				prev = id
			}
		} else {
			for y := w.Span.Lo; y <= w.Span.Hi; y++ {
				id := touch(cell3{w.Fixed, y, w.Layer})
				if prev >= 0 {
					union(prev, id)
				}
				prev = id
			}
		}
	}
	for _, v := range rt.Vias {
		a, okA := cells[cell3{v.X, v.Y, v.Layer}]
		b, okB := cells[cell3{v.X, v.Y, v.Layer + 1}]
		if okA && okB {
			union(a, b)
		}
	}
	root := -1
	for _, p := range net.Pins {
		id, ok := cells[cell3{p.X, p.Y, p.Layer}]
		if !ok {
			return false
		}
		if root == -1 {
			root = find(id)
		} else if find(id) != root {
			return false
		}
	}
	return true
}

package drc

import (
	"math/rand"
	"reflect"
	"testing"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

func circuit(nets ...*netlist.Net) *netlist.Circuit {
	return &netlist.Circuit{Name: "t", Fabric: grid.New(60, 60, 3), Nets: nets}
}

func pinNet(id int, pts ...geom.Point) *netlist.Net {
	n := &netlist.Net{ID: id}
	for _, p := range pts {
		n.Pins = append(n.Pins, netlist.Pin{Point: p, Layer: 1})
	}
	return n
}

func TestCleanRoute(t *testing.T) {
	c := circuit(pinNet(0, geom.Point{X: 2, Y: 5}, geom.Point{X: 12, Y: 5}))
	routes := []plan.NetRoute{{
		NetID: 0, Routed: true,
		Wires: []geom.Segment{geom.HSeg(1, 5, 2, 12)},
	}}
	rep := checkRef(t, c, routes)
	if rep.ShortPolygons != 0 || rep.ViaViolations != 0 || rep.VertRouteViolations != 0 {
		t.Errorf("clean route flagged: %+v", rep)
	}
	if rep.Routability() != 100 {
		t.Errorf("routability = %v", rep.Routability())
	}
	if rep.Wirelength != 10 {
		t.Errorf("wirelength = %d", rep.Wirelength)
	}
}

func TestShortPolygonDetected(t *testing.T) {
	// Horizontal wire from x=14 to x=20 on layer 1: cut by stitch line at
	// x=15. Low end x=14 is in the SUR (distance 1) and has a landing via.
	c := circuit(pinNet(0, geom.Point{X: 14, Y: 5}, geom.Point{X: 20, Y: 5}))
	routes := []plan.NetRoute{{
		NetID: 0, Routed: true,
		Wires: []geom.Segment{geom.HSeg(1, 5, 14, 20)},
		Vias:  []plan.Via{{X: 14, Y: 5, Layer: 1}},
	}}
	rep := checkRef(t, c, routes)
	if rep.ShortPolygons != 1 {
		t.Errorf("short polygons = %d, want 1", rep.ShortPolygons)
	}
}

func TestNoViaNoShortPolygon(t *testing.T) {
	c := circuit(pinNet(0, geom.Point{X: 14, Y: 5}, geom.Point{X: 20, Y: 5}))
	routes := []plan.NetRoute{{
		NetID: 0, Routed: true,
		Wires: []geom.Segment{geom.HSeg(1, 5, 14, 20)},
	}}
	if rep := checkRef(t, c, routes); rep.ShortPolygons != 0 {
		t.Errorf("short polygon without landing via: %d", rep.ShortPolygons)
	}
}

func TestEndOutsideSURNoShortPolygon(t *testing.T) {
	// End at x=12: distance 3 from stitch at 15 > eps.
	c := circuit(pinNet(0, geom.Point{X: 12, Y: 5}, geom.Point{X: 20, Y: 5}))
	routes := []plan.NetRoute{{
		NetID: 0, Routed: true,
		Wires: []geom.Segment{geom.HSeg(1, 5, 12, 20)},
		Vias:  []plan.Via{{X: 12, Y: 5, Layer: 1}},
	}}
	if rep := checkRef(t, c, routes); rep.ShortPolygons != 0 {
		t.Errorf("SP outside SUR: %d", rep.ShortPolygons)
	}
}

func TestUncutWireNoShortPolygon(t *testing.T) {
	// Wire entirely inside one stripe: ends near the stitch line but the
	// line does not cut the wire.
	c := circuit(pinNet(0, geom.Point{X: 14, Y: 5}, geom.Point{X: 16, Y: 8}))
	routes := []plan.NetRoute{{
		NetID: 0, Routed: true,
		Wires: []geom.Segment{geom.HSeg(1, 5, 16, 20)}, // starts right of stitch 15
		Vias:  []plan.Via{{X: 16, Y: 5, Layer: 1}},
	}}
	if rep := checkRef(t, c, routes); rep.ShortPolygons != 0 {
		t.Errorf("SP on uncut wire: %d", rep.ShortPolygons)
	}
}

func TestWireEndingOnStitchNotCut(t *testing.T) {
	// A wire whose end lies exactly on the stitch column is not cut at
	// that end (the metal stops at the line).
	c := circuit(pinNet(0, geom.Point{X: 15, Y: 5}, geom.Point{X: 25, Y: 5}))
	routes := []plan.NetRoute{{
		NetID: 0, Routed: true,
		Wires: []geom.Segment{geom.HSeg(1, 5, 15, 25)},
		Vias:  []plan.Via{{X: 15, Y: 5, Layer: 1}},
	}}
	rep := checkRef(t, c, routes)
	if rep.ShortPolygons != 0 {
		t.Errorf("SP for wire ending on stitch: %d", rep.ShortPolygons)
	}
	// But that via sits on the stitch column at the pin: a pin-forced VV.
	if rep.ViaViolations != 1 || rep.ViaViolationsOffPin != 0 {
		t.Errorf("VV = %d offpin %d, want 1/0", rep.ViaViolations, rep.ViaViolationsOffPin)
	}
}

func TestViaViolationOffPin(t *testing.T) {
	c := circuit(pinNet(0, geom.Point{X: 2, Y: 5}, geom.Point{X: 20, Y: 5}))
	routes := []plan.NetRoute{{
		NetID: 0, Routed: true,
		Wires: []geom.Segment{geom.HSeg(1, 5, 2, 20)},
		Vias:  []plan.Via{{X: 30, Y: 5, Layer: 1}}, // stitch col, not a pin
	}}
	rep := checkRef(t, c, routes)
	if rep.ViaViolations != 1 || rep.ViaViolationsOffPin != 1 {
		t.Errorf("VV = %d offpin %d", rep.ViaViolations, rep.ViaViolationsOffPin)
	}
}

func TestVerticalRoutingViolation(t *testing.T) {
	c := circuit(pinNet(0, geom.Point{X: 15, Y: 2}, geom.Point{X: 15, Y: 9}))
	routes := []plan.NetRoute{{
		NetID: 0, Routed: true,
		Wires: []geom.Segment{geom.VSeg(2, 15, 2, 9)},
	}}
	rep := checkRef(t, c, routes)
	if rep.VertRouteViolations != 1 {
		t.Errorf("vertical routing violations = %d, want 1", rep.VertRouteViolations)
	}
}

func TestSinglePadOnStitchNotVertViolation(t *testing.T) {
	// A single-cell pad on a stitch column is not a vertical wire.
	c := circuit(pinNet(0, geom.Point{X: 15, Y: 2}, geom.Point{X: 16, Y: 2}))
	routes := []plan.NetRoute{{
		NetID: 0, Routed: true,
		Wires: []geom.Segment{geom.VSeg(2, 15, 2, 2), geom.HSeg(1, 2, 15, 16)},
	}}
	if rep := checkRef(t, c, routes); rep.VertRouteViolations != 0 {
		t.Errorf("pad flagged as vertical violation: %d", rep.VertRouteViolations)
	}
}

func TestBothEndsShortPolygons(t *testing.T) {
	// Wire spanning two stitch lines (15 and 30) with vias at both SUR
	// ends: two short polygons.
	c := circuit(pinNet(0, geom.Point{X: 14, Y: 5}, geom.Point{X: 31, Y: 5}))
	routes := []plan.NetRoute{{
		NetID: 0, Routed: true,
		Wires: []geom.Segment{geom.HSeg(3, 5, 14, 31)},
		Vias:  []plan.Via{{X: 14, Y: 5, Layer: 2}, {X: 31, Y: 5, Layer: 2}},
	}}
	rep := checkRef(t, c, routes)
	if rep.ShortPolygons != 2 {
		t.Errorf("short polygons = %d, want 2", rep.ShortPolygons)
	}
}

func TestRoutabilityCounting(t *testing.T) {
	c := circuit(
		pinNet(0, geom.Point{X: 2, Y: 5}, geom.Point{X: 9, Y: 5}),
		pinNet(1, geom.Point{X: 2, Y: 9}, geom.Point{X: 9, Y: 9}),
	)
	routes := []plan.NetRoute{
		{NetID: 0, Routed: true, Wires: []geom.Segment{geom.HSeg(1, 5, 2, 9)}},
		{NetID: 1, Routed: false},
	}
	rep := checkRef(t, c, routes)
	if rep.Routability() != 50 {
		t.Errorf("routability = %v, want 50", rep.Routability())
	}
}

func TestSplitWiresMergedBeforeCheck(t *testing.T) {
	// Two touching wire pieces crossing the stitch line must be analyzed
	// as one polygon: end at x=14 (SUR) with via, cut at 15.
	c := circuit(pinNet(0, geom.Point{X: 14, Y: 5}, geom.Point{X: 20, Y: 5}))
	routes := []plan.NetRoute{{
		NetID: 0, Routed: true,
		Wires: []geom.Segment{
			geom.HSeg(1, 5, 14, 15),
			geom.HSeg(1, 5, 16, 20),
		},
		Vias: []plan.Via{{X: 14, Y: 5, Layer: 1}},
	}}
	rep := checkRef(t, c, routes)
	if rep.ShortPolygons != 1 {
		t.Errorf("short polygons = %d, want 1 (wires not merged?)", rep.ShortPolygons)
	}

	// Interleaved pieces of two tracks: the merged polygons, and so the
	// short-polygon sites, come out in the order each track first
	// appears (y=9 before y=5), not in track order.
	c = circuit(pinNet(0, geom.Point{X: 14, Y: 5}, geom.Point{X: 14, Y: 9}))
	routes = []plan.NetRoute{{
		NetID: 0, Routed: true,
		Wires: []geom.Segment{
			geom.HSeg(1, 9, 16, 20),
			geom.HSeg(1, 5, 14, 15),
			geom.HSeg(1, 9, 14, 15),
			geom.HSeg(1, 5, 16, 20),
		},
		Vias: []plan.Via{{X: 14, Y: 5, Layer: 1}, {X: 14, Y: 9, Layer: 1}},
	}}
	rep = checkRef(t, c, routes)
	want := []geom.Point{{X: 14, Y: 9}, {X: 14, Y: 5}}
	if !reflect.DeepEqual(rep.SPSites, want) {
		t.Errorf("SPSites = %v, want %v (first-appearance track order)", rep.SPSites, want)
	}
}

func TestCheckShorts(t *testing.T) {
	routes := []plan.NetRoute{
		{NetID: 0, Routed: true, Wires: []geom.Segment{geom.HSeg(1, 5, 0, 9)}},
		{NetID: 1, Routed: true, Wires: []geom.Segment{geom.VSeg(1, 4, 0, 9)}}, // crosses net 0 at (4,5,L1)
	}
	if n := CheckShorts(routes); n != 1 {
		t.Errorf("shorts = %d, want 1", n)
	}
	// Same net overlapping itself is not a short.
	self := []plan.NetRoute{{NetID: 0, Routed: true, Wires: []geom.Segment{
		geom.HSeg(1, 5, 0, 9), geom.HSeg(1, 5, 3, 12),
	}}}
	if n := CheckShorts(self); n != 0 {
		t.Errorf("self-overlap counted as short: %d", n)
	}
	// Different layers never short.
	layered := []plan.NetRoute{
		{NetID: 0, Routed: true, Wires: []geom.Segment{geom.HSeg(1, 5, 0, 9)}},
		{NetID: 1, Routed: true, Wires: []geom.Segment{geom.HSeg(2, 5, 0, 9)}},
	}
	if n := CheckShorts(layered); n != 0 {
		t.Errorf("cross-layer short: %d", n)
	}
	// Wires far apart take the hash map instead of a dense grid.
	far := []plan.NetRoute{
		{NetID: 0, Routed: true, Wires: []geom.Segment{geom.HSeg(1, 5, 0, 9)}},
		{NetID: 1, Routed: true, Wires: []geom.Segment{geom.VSeg(1, 4, 0, 9), geom.HSeg(3, 1<<40, 0, 2)}},
		{NetID: 2, Routed: true, Wires: []geom.Segment{geom.HSeg(3, 1<<40, 2, 3)}},
	}
	if n := CheckShorts(far); n != 2 {
		t.Errorf("far-apart wires: shorts = %d, want 2", n)
	}
}

// TestCheckShortsGridMatchesMap checks the dense-grid count against the
// hash-map one on random overlapping routes: wires of a few nets on a
// small area, every orientation and layer, empty spans and repeated net
// IDs included.
func TestCheckShortsGridMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var routes []plan.NetRoute
		for n := rng.Intn(6); n >= 0; n-- {
			rt := plan.NetRoute{NetID: rng.Intn(4), Routed: true}
			for k := rng.Intn(4); k >= 0; k-- {
				lo := rng.Intn(20) - 5
				rt.Wires = append(rt.Wires, geom.Segment{
					Orient: geom.Orientation(rng.Intn(2)),
					Layer:  1 + rng.Intn(3),
					Fixed:  rng.Intn(20) - 5,
					Span:   geom.Interval{Lo: lo, Hi: lo + rng.Intn(12) - 2},
				})
			}
			routes = append(routes, rt)
		}
		if got, want := CheckShorts(routes), checkShortsMap(routes); got != want {
			t.Fatalf("trial %d: grid count %d, map count %d for %v", trial, got, want, routes)
		}
	}
}

func TestCheckConnectivity(t *testing.T) {
	c := circuit(pinNet(0, geom.Point{X: 2, Y: 5}, geom.Point{X: 9, Y: 5}))
	// Connected: one wire covering both pins.
	good := []plan.NetRoute{{NetID: 0, Routed: true, Wires: []geom.Segment{geom.HSeg(1, 5, 2, 9)}}}
	if n := CheckConnectivity(c, good); n != 0 {
		t.Errorf("connected net reported bad: %d", n)
	}
	// Disconnected: gap in the middle.
	bad := []plan.NetRoute{{NetID: 0, Routed: true, Wires: []geom.Segment{
		geom.HSeg(1, 5, 2, 4), geom.HSeg(1, 5, 6, 9),
	}}}
	if n := CheckConnectivity(c, bad); n != 1 {
		t.Errorf("gap not detected: %d", n)
	}
	// Two layers joined by a via are connected.
	viad := []plan.NetRoute{{NetID: 0, Routed: true,
		Wires: []geom.Segment{geom.HSeg(1, 5, 2, 6), geom.VSeg(2, 6, 5, 8), geom.HSeg(1, 5, 6, 9)},
		Vias:  []plan.Via{{X: 6, Y: 5, Layer: 1}},
	}}
	if n := CheckConnectivity(c, viad); n != 0 {
		t.Errorf("via-joined net reported bad: %d", n)
	}
	// Unrouted nets are skipped.
	skip := []plan.NetRoute{{NetID: 0, Routed: false}}
	if n := CheckConnectivity(c, skip); n != 0 {
		t.Errorf("unrouted net counted: %d", n)
	}
	// A routed net with a missing pin is disconnected.
	missing := []plan.NetRoute{{NetID: 0, Routed: true, Wires: []geom.Segment{geom.HSeg(1, 5, 2, 5)}}}
	if n := CheckConnectivity(c, missing); n != 1 {
		t.Errorf("missing pin not detected: %d", n)
	}
}

// TestCheckConnectivityOffChip: geometry read from a file may lie far
// off the chip. The window stays the chip's size, and off-chip cells
// join nothing.
func TestCheckConnectivityOffChip(t *testing.T) {
	c := circuit(pinNet(0, geom.Point{X: 2, Y: 5}, geom.Point{X: 9, Y: 5}))
	far := 1 << 40
	stray := []plan.NetRoute{{NetID: 0, Routed: true, Wires: []geom.Segment{
		geom.HSeg(1, 5, 2, 9), geom.HSeg(1, far, far, far+5), geom.VSeg(3, -far, 0, 3),
	}}}
	if n := CheckConnectivity(c, stray); n != 0 {
		t.Errorf("connected net with stray off-chip wires reported bad: %d", n)
	}
	// The two halves meet only through wires that leave the chip.
	bridged := []plan.NetRoute{{NetID: 0, Routed: true, Wires: []geom.Segment{
		geom.HSeg(1, 5, 2, 4), geom.VSeg(1, 4, -far, 5),
		geom.HSeg(1, -far, 4, 7), geom.VSeg(1, 7, -far, 5), geom.HSeg(1, 5, 7, 9),
	}}}
	if n := CheckConnectivity(c, bridged); n != 1 {
		t.Errorf("net joined only off the chip: CheckConnectivity = %d, want 1", n)
	}
}

func TestViaCount(t *testing.T) {
	c := circuit(pinNet(0, geom.Point{X: 2, Y: 5}, geom.Point{X: 9, Y: 5}))
	routes := []plan.NetRoute{{
		NetID: 0, Routed: true,
		Wires: []geom.Segment{geom.HSeg(1, 5, 2, 9), geom.VSeg(2, 9, 5, 8)},
		Vias:  []plan.Via{{X: 9, Y: 5, Layer: 1}, {X: 9, Y: 8, Layer: 1}},
	}}
	if rep := checkRef(t, c, routes); rep.Vias != 2 {
		t.Errorf("vias = %d, want 2", rep.Vias)
	}
}

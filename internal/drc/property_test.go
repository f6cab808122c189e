package drc

import (
	"math/rand"
	"testing"

	"stitchroute/internal/detail"
	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// bruteShortPolygons recounts short polygons with an independent, naive
// implementation: merge wires, then for every horizontal wire end check
// every stitching line explicitly.
func bruteShortPolygons(f *grid.Fabric, rt *plan.NetRoute) int {
	merged := detail.MergedWires(rt.Wires)
	via := map[[3]int]bool{}
	for _, v := range rt.Vias {
		via[[3]int{v.X, v.Y, v.Layer}] = true
		via[[3]int{v.X, v.Y, v.Layer + 1}] = true
	}
	count := 0
	for _, w := range merged {
		if w.Orient != geom.Horizontal {
			continue
		}
		for _, s := range f.StitchCols() {
			if !(w.Span.Lo < s && s < w.Span.Hi) {
				continue // not cut by this line
			}
			for _, end := range [2]int{w.Span.Lo, w.Span.Hi} {
				d := end - s
				if d < 0 {
					d = -d
				}
				if d >= 1 && d <= f.SUREps && via[[3]int{end, w.Fixed, w.Layer}] {
					count++
				}
			}
		}
	}
	return count
}

func TestShortPolygonCountMatchesBruteForce(t *testing.T) {
	f := grid.New(90, 60, 3)
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 200; iter++ {
		// Random geometry: a handful of horizontal wires and vias.
		var rt plan.NetRoute
		rt.Routed = true
		nw := 1 + rng.Intn(5)
		for i := 0; i < nw; i++ {
			y := rng.Intn(60)
			x0 := rng.Intn(85)
			x1 := x0 + 1 + rng.Intn(89-x0)
			layer := 1 + 2*rng.Intn(2) // 1 or 3
			rt.Wires = append(rt.Wires, geom.HSeg(layer, y, x0, x1))
			// Sometimes add a via at a wire end.
			if rng.Intn(2) == 0 {
				end := x0
				if rng.Intn(2) == 0 {
					end = x1
				}
				vl := layer
				if vl >= f.Layers {
					vl = layer - 1
				}
				rt.Vias = append(rt.Vias, plan.Via{X: end, Y: y, Layer: vl})
			}
		}
		c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{
			{ID: 0, Name: "n", Pins: []netlist.Pin{
				{Point: geom.Point{X: 1, Y: 1}, Layer: 1},
				{Point: geom.Point{X: 2, Y: 2}, Layer: 1},
			}},
		}}
		rep := checkRef(t, c, []plan.NetRoute{rt})
		want := bruteShortPolygons(f, &rt)
		if rep.ShortPolygons != want {
			t.Fatalf("iter %d: Check found %d SPs, brute force %d (wires %v vias %v)",
				iter, rep.ShortPolygons, want, rt.Wires, rt.Vias)
		}
		if len(rep.SPSites) > rep.ShortPolygons {
			t.Fatalf("iter %d: more sites than SPs", iter)
		}
	}
}

func TestWirelengthMatchesCellCount(t *testing.T) {
	f := grid.New(60, 60, 3)
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		var rt plan.NetRoute
		rt.Routed = true
		// Non-overlapping wires on distinct rows/layers so lengths add up.
		total := int64(0)
		for i := 0; i < 4; i++ {
			y := i * 7
			x0 := rng.Intn(30)
			x1 := x0 + rng.Intn(29)
			rt.Wires = append(rt.Wires, geom.HSeg(1, y, x0, x1))
			total += int64(geom.NewInterval(x0, x1).Len() - 1)
		}
		c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{
			{ID: 0, Name: "n", Pins: []netlist.Pin{
				{Point: geom.Point{X: 1, Y: 1}, Layer: 1},
				{Point: geom.Point{X: 2, Y: 2}, Layer: 1},
			}},
		}}
		rep := checkRef(t, c, []plan.NetRoute{rt})
		if rep.Wirelength != total {
			t.Fatalf("iter %d: WL %d, want %d", iter, rep.Wirelength, total)
		}
	}
}

// oneNet builds a single-net circuit on fabric f with the given pins.
func oneNet(f *grid.Fabric, pins ...netlist.Pin) *netlist.Circuit {
	return &netlist.Circuit{Name: "adv", Fabric: f, Nets: []*netlist.Net{
		{ID: 0, Name: "n0", Pins: pins},
	}}
}

func pin(x, y int) netlist.Pin {
	return netlist.Pin{Point: geom.Point{X: x, Y: y}, Layer: 1}
}

// TestAdversarialViolations hand-builds routes that violate exactly one
// rule each and asserts the checker flags it — the failing direction the
// random property tests cannot pin down. The fabric has stitching lines
// at x = 0, 15, 30, 45, 60, 75 with SUREps = 1.
func TestAdversarialViolations(t *testing.T) {
	f := grid.New(90, 60, 3)
	if f.StitchPitch != 15 || f.SUREps != 1 {
		t.Fatalf("fabric defaults changed (pitch %d, eps %d); rewrite these cases", f.StitchPitch, f.SUREps)
	}

	t.Run("via-on-stitch-off-pin", func(t *testing.T) {
		c := oneNet(f, pin(2, 2), pin(8, 2))
		rt := plan.NetRoute{Routed: true,
			Wires: []geom.Segment{geom.HSeg(1, 2, 2, 8)},
			Vias:  []plan.Via{{X: 30, Y: 10, Layer: 1}},
		}
		rep := checkRef(t, c, []plan.NetRoute{rt})
		if rep.ViaViolations != 1 || rep.ViaViolationsOffPin != 1 {
			t.Errorf("via at (30,10) off-pin: VV=%d offPin=%d, want 1/1", rep.ViaViolations, rep.ViaViolationsOffPin)
		}
	})

	t.Run("via-on-stitch-at-pin", func(t *testing.T) {
		c := oneNet(f, pin(30, 10), pin(35, 10))
		rt := plan.NetRoute{Routed: true,
			Wires: []geom.Segment{geom.HSeg(1, 10, 30, 35)},
			Vias:  []plan.Via{{X: 30, Y: 10, Layer: 1}},
		}
		rep := checkRef(t, c, []plan.NetRoute{rt})
		if rep.ViaViolations != 1 || rep.ViaViolationsOffPin != 0 {
			t.Errorf("via at pin on stitch: VV=%d offPin=%d, want 1/0", rep.ViaViolations, rep.ViaViolationsOffPin)
		}
	})

	t.Run("vertical-wire-on-stitch", func(t *testing.T) {
		c := oneNet(f, pin(30, 5), pin(30, 9))
		rt := plan.NetRoute{Routed: true,
			Wires: []geom.Segment{geom.VSeg(2, 30, 5, 9)},
		}
		rep := checkRef(t, c, []plan.NetRoute{rt})
		if rep.VertRouteViolations != 1 {
			t.Errorf("vertical run along x=30: VertRouteViolations=%d, want 1", rep.VertRouteViolations)
		}
	})

	t.Run("unit-vertical-crossing-is-legal", func(t *testing.T) {
		// A single-track vertical cell on a stitching line is a crossing,
		// not a run along the line, and must not be flagged.
		c := oneNet(f, pin(30, 5), pin(31, 5))
		rt := plan.NetRoute{Routed: true,
			Wires: []geom.Segment{geom.VSeg(2, 30, 5, 5)},
		}
		rep := checkRef(t, c, []plan.NetRoute{rt})
		if rep.VertRouteViolations != 0 {
			t.Errorf("unit vertical cell on x=30: VertRouteViolations=%d, want 0", rep.VertRouteViolations)
		}
	})

	t.Run("short-polygon-with-landing-via", func(t *testing.T) {
		// Wire end at x=14 is inside the SUR of the stitching line at
		// x=15, which cuts the wire; the landing via completes the SP.
		c := oneNet(f, pin(14, 10), pin(40, 10))
		rt := plan.NetRoute{Routed: true,
			Wires: []geom.Segment{geom.HSeg(1, 10, 14, 40)},
			Vias:  []plan.Via{{X: 14, Y: 10, Layer: 1}},
		}
		rep := checkRef(t, c, []plan.NetRoute{rt})
		if rep.ShortPolygons != 1 {
			t.Errorf("SP=%d, want 1", rep.ShortPolygons)
		}
		if len(rep.SPSites) != 1 || rep.SPSites[0] != (geom.Point{X: 14, Y: 10}) {
			t.Errorf("SPSites=%v, want [(14,10)]", rep.SPSites)
		}
	})

	t.Run("short-polygon-needs-via", func(t *testing.T) {
		c := oneNet(f, pin(14, 10), pin(40, 10))
		rt := plan.NetRoute{Routed: true,
			Wires: []geom.Segment{geom.HSeg(1, 10, 14, 40)},
		}
		if rep := checkRef(t, c, []plan.NetRoute{rt}); rep.ShortPolygons != 0 {
			t.Errorf("no landing via: SP=%d, want 0", rep.ShortPolygons)
		}
	})

	t.Run("short-polygon-outside-eps", func(t *testing.T) {
		// End at x=13 is two tracks from the stitching line at x=15 —
		// outside SUREps=1, so a landing via there is fine.
		c := oneNet(f, pin(13, 10), pin(40, 10))
		rt := plan.NetRoute{Routed: true,
			Wires: []geom.Segment{geom.HSeg(1, 10, 13, 40)},
			Vias:  []plan.Via{{X: 13, Y: 10, Layer: 1}},
		}
		if rep := checkRef(t, c, []plan.NetRoute{rt}); rep.ShortPolygons != 0 {
			t.Errorf("end outside SUR: SP=%d, want 0", rep.ShortPolygons)
		}
	})

	t.Run("cross-net-short", func(t *testing.T) {
		routes := []plan.NetRoute{
			{NetID: 0, Routed: true, Wires: []geom.Segment{geom.HSeg(1, 5, 0, 10)}},
			{NetID: 1, Routed: true, Wires: []geom.Segment{geom.HSeg(1, 5, 5, 12)}},
		}
		if got := CheckShorts(routes); got != 6 {
			t.Errorf("overlap x=5..10 on same track: shorts=%d, want 6", got)
		}
	})

	t.Run("same-net-overlap-is-not-a-short", func(t *testing.T) {
		routes := []plan.NetRoute{
			{NetID: 0, Routed: true, Wires: []geom.Segment{
				geom.HSeg(1, 5, 0, 10), geom.HSeg(1, 5, 5, 12),
			}},
		}
		if got := CheckShorts(routes); got != 0 {
			t.Errorf("same-net overlap: shorts=%d, want 0", got)
		}
	})

	t.Run("disconnected-but-marked-routed", func(t *testing.T) {
		c := oneNet(f, pin(2, 2), pin(50, 2))
		rt := plan.NetRoute{Routed: true,
			Wires: []geom.Segment{geom.HSeg(1, 2, 0, 10)}, // never reaches x=50
		}
		if got := CheckConnectivity(c, []plan.NetRoute{rt}); got != 1 {
			t.Errorf("disconnected routed net: CheckConnectivity=%d, want 1", got)
		}
	})

	t.Run("connected-via-layer-change", func(t *testing.T) {
		c := oneNet(f, pin(2, 2), pin(10, 8))
		rt := plan.NetRoute{Routed: true,
			Wires: []geom.Segment{
				geom.HSeg(1, 2, 2, 10),
				geom.VSeg(2, 10, 2, 8),
				geom.HSeg(1, 8, 10, 10),
			},
			Vias: []plan.Via{{X: 10, Y: 2, Layer: 1}, {X: 10, Y: 8, Layer: 1}},
		}
		if got := CheckConnectivity(c, []plan.NetRoute{rt}); got != 0 {
			t.Errorf("stitched-together net: CheckConnectivity=%d, want 0", got)
		}
	})
}

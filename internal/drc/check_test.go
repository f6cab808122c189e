package drc_test

import (
	"math/rand"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/drc"
	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// routed is a benchmark circuit with its stitch-aware routes.
type routed struct {
	c      *netlist.Circuit
	routes []plan.NetRoute
}

// routedCache holds each benchmark's routes for the test binary's run.
var routedCache = map[string]routed{}

// routeBench generates and routes a benchmark circuit once per test
// binary.
func routeBench(tb testing.TB, name string) routed {
	tb.Helper()
	if r, ok := routedCache[name]; ok {
		return r
	}
	spec, err := bench.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	c := bench.Generate(spec)
	res, err := core.Route(c, core.StitchAware())
	if err != nil {
		tb.Fatal(err)
	}
	r := routed{c: c, routes: res.Routes}
	routedCache[name] = r
	return r
}

// TestCheckMatchesReference compares the whole report, SPSites order
// included, with the map-based reference checker on routed benchmarks,
// on random multi-net geometry and on a layout with more short polygons
// than SPSites records.
func TestCheckMatchesReference(t *testing.T) {
	names := []string{"Primary1", "S9234", "S13207"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			r := routeBench(t, name)
			rep := drc.CheckRef(t, r.c, r.routes)
			if rep.RoutedNets == 0 || rep.Wirelength == 0 {
				t.Fatalf("degenerate report %+v", rep)
			}
		})
	}

	t.Run("random", func(t *testing.T) {
		f := grid.New(90, 60, 3)
		rng := rand.New(rand.NewSource(11))
		for iter := 0; iter < 300; iter++ {
			c, routes := randomLayout(rng, f, 1+rng.Intn(4))
			drc.CheckRef(t, c, routes)
		}
	})

	t.Run("sp-cap", func(t *testing.T) {
		// 150 rows, each one wire cut by the lines at x=15 and x=30
		// with landing vias at both ends: 300 short polygons over three
		// nets whose rows interleave.
		f := grid.New(90, 160, 3)
		c := &netlist.Circuit{Name: "cap", Fabric: f}
		routes := make([]plan.NetRoute, 3)
		for n := range routes {
			c.Nets = append(c.Nets, &netlist.Net{ID: n, Pins: []netlist.Pin{
				{Point: geom.Point{X: 1, Y: n}, Layer: 1},
				{Point: geom.Point{X: 2, Y: n}, Layer: 1},
			}})
			routes[n] = plan.NetRoute{NetID: n, Routed: true}
		}
		for y := 0; y < 150; y++ {
			rt := &routes[y%3]
			rt.Wires = append(rt.Wires, geom.HSeg(1, y, 14, 31))
			rt.Vias = append(rt.Vias, plan.Via{X: 31, Y: y, Layer: 1}, plan.Via{X: 14, Y: y, Layer: 1})
		}
		rep := drc.CheckRef(t, c, routes)
		if rep.ShortPolygons != 300 || len(rep.SPSites) != 256 {
			t.Fatalf("SP=%d sites=%d, want 300 and the 256 cap", rep.ShortPolygons, len(rep.SPSites))
		}
	})
}

// randomLayout builds nets with random pins, vias and horizontal and
// vertical wires that overlap and interleave on a few shared tracks, so
// merges, group order, stitch-column vias and short polygons all occur.
func randomLayout(rng *rand.Rand, f *grid.Fabric, nNets int) (*netlist.Circuit, []plan.NetRoute) {
	c := &netlist.Circuit{Name: "rand", Fabric: f}
	routes := make([]plan.NetRoute, nNets)
	for n := range routes {
		net := &netlist.Net{ID: n}
		for p := 0; p < 2+rng.Intn(3); p++ {
			net.Pins = append(net.Pins, netlist.Pin{Point: geom.Point{X: rng.Intn(f.XTracks), Y: rng.Intn(f.YTracks)}, Layer: 1})
		}
		c.Nets = append(c.Nets, net)
		rt := &routes[n]
		rt.NetID, rt.Routed = n, rng.Intn(5) != 0
		for w := 0; w < rng.Intn(12); w++ {
			layer := 1 + rng.Intn(f.Layers)
			if rng.Intn(2) == 0 {
				y := rng.Intn(4) * 9
				x0 := rng.Intn(f.XTracks)
				x1 := min(f.XTracks-1, x0+rng.Intn(40))
				rt.Wires = append(rt.Wires, geom.HSeg(layer, y, x0, x1))
				if rng.Intn(2) == 0 {
					end := []int{x0, x1}[rng.Intn(2)]
					rt.Vias = append(rt.Vias, plan.Via{X: end, Y: y, Layer: max(1, layer-rng.Intn(2))})
				}
			} else {
				x := rng.Intn(6) * 15
				y0 := rng.Intn(f.YTracks)
				y1 := min(f.YTracks-1, y0+rng.Intn(20))
				rt.Wires = append(rt.Wires, geom.VSeg(layer, x, y0, y1))
			}
		}
		for v := 0; v < rng.Intn(3); v++ {
			pin := net.Pins[rng.Intn(len(net.Pins))]
			x := pin.X
			if rng.Intn(2) == 0 {
				x = rng.Intn(6) * 15
			}
			rt.Vias = append(rt.Vias, plan.Via{X: x, Y: pin.Y, Layer: 1 + rng.Intn(f.Layers-1)})
		}
	}
	return c, routes
}

// TestCheckAllocs pins Check's allocation count on S13207: one scratch
// serves the whole call, so the count is a small constant (the scratch
// growing), not one or more per net.
func TestCheckAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("routes S13207")
	}
	r := routeBench(t, "S13207")
	allocs := testing.AllocsPerRun(3, func() { drc.Check(r.c, r.routes) })
	if allocs > 100 {
		t.Errorf("drc.Check on S13207 (%d nets): %.0f allocs, want at most 100", len(r.c.Nets), allocs)
	}
}

// BenchmarkCheck times one full-chip DRC pass over a routed S9234.
func BenchmarkCheck(b *testing.B) {
	r := routeBench(b, "S9234")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drc.Check(r.c, r.routes)
	}
}

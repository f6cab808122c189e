package drc_test

import (
	"math/rand"
	"reflect"
	"runtime"
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
		c, routes := capLayout()
		rep := drc.CheckRef(t, c, routes)
		if rep.ShortPolygons != 300 || len(rep.SPSites) != 256 {
			t.Fatalf("SP=%d sites=%d, want 300 and the 256 cap", rep.ShortPolygons, len(rep.SPSites))
		}
	})
}

// capLayout has more short polygons than SPSites records: 150 rows,
// each one wire cut by the lines at x=15 and x=30 with landing vias at
// both ends, 300 short polygons over three nets whose rows interleave.
func capLayout() (*netlist.Circuit, []plan.NetRoute) {
	f := grid.New(90, 160, 3)
	c := &netlist.Circuit{Name: "cap", Fabric: f}
	routes := make([]plan.NetRoute, 3)
	for n := range routes {
		c.Nets = append(c.Nets, capNet(n))
		routes[n] = plan.NetRoute{NetID: n, Routed: true}
	}
	for y := 0; y < 150; y++ {
		rt := &routes[y%3]
		rt.Wires = append(rt.Wires, geom.HSeg(1, y, 14, 31))
		rt.Vias = append(rt.Vias, plan.Via{X: 31, Y: y, Layer: 1}, plan.Via{X: 14, Y: y, Layer: 1})
	}
	return c, routes
}

func capNet(id int) *netlist.Net {
	return &netlist.Net{ID: id, Pins: []netlist.Pin{
		{Point: geom.Point{X: 1, Y: id}, Layer: 1},
		{Point: geom.Point{X: 2, Y: id}, Layer: 1},
	}}
}

// slotEdit builds an edited chip from a checked base: each entry of
// from is the base slot whose net and route a slot keeps, or -1 for
// the next of the fresh nets and routes.
func slotEdit(base drc.Base, from []int, nets []*netlist.Net, routes []plan.NetRoute) (*netlist.Circuit, []plan.NetRoute) {
	c := &netlist.Circuit{Name: "edited", Fabric: base.Circuit.Fabric}
	var out []plan.NetRoute
	for _, p := range from {
		if p >= 0 {
			c.Nets = append(c.Nets, base.Circuit.Nets[p])
			out = append(out, base.Routes[p])
			continue
		}
		c.Nets = append(c.Nets, nets[0])
		out = append(out, routes[0])
		nets, routes = nets[1:], routes[1:]
	}
	return c, out
}

// checkUpdate requires Update from base to give what a full check of the
// edited chip gives, and returns the edited chip as a base.
func checkUpdate(t *testing.T, base drc.Base, c *netlist.Circuit, routes []plan.NetRoute, kept []int) drc.Base {
	t.Helper()
	want, wantSlots := drc.CheckSlots(c, routes)
	got, slots := drc.Update(base, c, routes, kept)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(slots, wantSlots) {
		t.Fatalf("kept %v: Update gave SP=%d sites=%d slots=%v report %+v,\nfull check SP=%d sites=%d slots=%v report %+v",
			kept, got.ShortPolygons, len(got.SPSites), slots, got, want.ShortPolygons, len(want.SPSites), wantSlots, want)
	}
	return drc.Base{Circuit: c, Routes: routes, Report: got, SPSlots: slots}
}

// TestUpdateMatchesCheck holds drc.Update to a full check: on the
// capped-sites layout under deletes, re-checks and an added net, on a
// base without a slot list, and on random layouts whose slots are kept,
// deleted, rerouted or added, chained twice so an updated report is
// itself a base.
func TestUpdateMatchesCheck(t *testing.T) {
	t.Run("sp-cap", func(t *testing.T) {
		c, routes := capLayout()
		rep, slots := drc.CheckSlots(c, routes)
		base := drc.Base{Circuit: c, Routes: routes, Report: rep, SPSlots: slots}
		extra := plan.NetRoute{NetID: 3, Routed: true,
			Wires: []geom.Segment{geom.HSeg(1, 155, 14, 31)},
			Vias:  []plan.Via{{X: 14, Y: 155, Layer: 1}}}
		for _, tc := range []struct {
			name string
			from []int
			kept []int
		}{
			{"unchanged", []int{0, 1, 2}, []int{0, 1, 2}},
			{"recheck-first", []int{0, 1, 2}, []int{-1, 1, 2}},
			{"recheck-all", []int{0, 1, 2}, []int{-1, -1, -1}},
			{"delete-first", []int{1, 2}, []int{1, 2}},
			{"delete-last", []int{0, 1}, []int{0, 1}},
			{"add", []int{0, 1, 2, -1}, []int{0, 1, 2, -1}},
			{"add-first", []int{-1, 0, 1, 2}, []int{-1, 0, 1, 2}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				ec, er := slotEdit(base, tc.from, []*netlist.Net{capNet(3)}, []plan.NetRoute{extra})
				checkUpdate(t, base, ec, er, tc.kept)
			})
		}
		t.Run("no-list", func(t *testing.T) {
			noList := base
			noList.SPSlots = nil
			noList.Report = drc.Report{}
			checkUpdate(t, noList, c, routes, []int{0, 1, 2})
		})
	})

	t.Run("random", func(t *testing.T) {
		f := grid.New(90, 60, 3)
		rng := rand.New(rand.NewSource(12))
		for iter := 0; iter < 300; iter++ {
			c, routes := randomLayout(rng, f, 1+rng.Intn(6))
			rep, slots := drc.CheckSlots(c, routes)
			base := drc.Base{Circuit: c, Routes: routes, Report: rep, SPSlots: slots}
			for step := 0; step < 2; step++ {
				fc, fr := randomLayout(rng, f, 8)
				var from, kept []int
				for p := range base.Routes {
					switch rng.Intn(4) {
					case 0: // deleted
					case 1: // rerouted: same slot, new route
						from, kept = append(from, -1), append(kept, -1)
					default:
						from, kept = append(from, p), append(kept, p)
					}
					if rng.Intn(5) == 0 { // an added net
						from, kept = append(from, -1), append(kept, -1)
					}
				}
				ec, er := slotEdit(base, from, fc.Nets, fr)
				base = checkUpdate(t, base, ec, er, kept)
			}
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

// TestConnectivityMatchesReference compares CheckConnectivity's count
// with the hash-map reference on routed benchmarks, on random multi-net
// geometry, and on each routed benchmark net with one wire removed, so
// that both verdicts occur.
func TestConnectivityMatchesReference(t *testing.T) {
	names := []string{"Primary1", "S9234"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			r := routeBench(t, name)
			if got, want := drc.CheckConnectivity(r.c, r.routes), drc.ConnectivityRef(r.c, r.routes); got != want || got != 0 {
				t.Fatalf("CheckConnectivity = %d, reference %d, want both 0", got, want)
			}
			cut := append([]plan.NetRoute(nil), r.routes...)
			for i := range cut {
				if n := len(cut[i].Wires); n > 1 {
					w := append([]geom.Segment(nil), cut[i].Wires...)
					cut[i].Wires = append(w[:n/2], w[n/2+1:]...)
				}
			}
			got, want := drc.CheckConnectivity(r.c, cut), drc.ConnectivityRef(r.c, cut)
			if got != want || got == 0 {
				t.Fatalf("with one wire cut per net: CheckConnectivity = %d, reference %d, want equal and nonzero", got, want)
			}
		})
	}

	t.Run("random", func(t *testing.T) {
		f := grid.New(90, 60, 3)
		rng := rand.New(rand.NewSource(12))
		for iter := 0; iter < 300; iter++ {
			c, routes := randomLayout(rng, f, 1+rng.Intn(4))
			if got, want := drc.CheckConnectivity(c, routes), drc.ConnectivityRef(c, routes); got != want {
				t.Fatalf("iter %d: CheckConnectivity = %d, reference %d", iter, got, want)
			}
		}
	})
}

// TestCheckConnectivityAllocs bounds the bytes one CheckConnectivity
// call allocates on a routed S13207. The per-net hash maps it replaced
// allocated 21.7 MB in 44,882 allocations there.
func TestCheckConnectivityAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("routes S13207")
	}
	r := routeBench(t, "S13207")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if bad := drc.CheckConnectivity(r.c, r.routes); bad != 0 {
		t.Fatalf("%d disconnected nets on a routed S13207", bad)
	}
	runtime.ReadMemStats(&after)
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("CheckConnectivity on S13207: %d bytes in %d allocations", bytes, allocs)
	if bytes > 4<<20 || allocs > 100 {
		t.Errorf("CheckConnectivity on S13207 allocated %d bytes in %d allocations, want at most 4 MiB in 100", bytes, allocs)
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

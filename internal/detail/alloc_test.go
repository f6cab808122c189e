package detail

import (
	"testing"

	"stitchroute/internal/geom"
	"stitchroute/internal/netlist"
)

// TestRouteNetSteadyStateAllocs pins the arena discipline with the
// runtime's own allocation counter: once the searchCtx and the task's
// wire/via slices have grown to size, a per-net search — components,
// connect, A*, commit — performs zero heap allocations. This is the
// dynamic twin of the hotalloc analyzer: the analyzer proves no
// allocation site is reachable from the search loop, this test proves
// the claim holds at runtime, so a regression trips whichever guard
// sees it first.
func TestRouteNetSteadyStateAllocs(t *testing.T) {
	f := fabric()
	r := NewRouter(f, DefaultConfig(true))
	net := mkNet(0, geom.Point{X: 2, Y: 2}, geom.Point{X: 40, Y: 30})
	task := newTask(&netlist.Circuit{Fabric: f, Nets: []*netlist.Net{net}}, nil, 0)

	route := func() {
		if !r.routeNet(task) {
			t.Fatal("route failed")
		}
		// Undo the route so the next iteration searches the same
		// problem: clear occupancy, then reslice the commit buffers to
		// keep their capacity.
		r.clearNet(task)
		task.wires = task.wires[:0]
		task.vias = task.vias[:0]
	}
	// Warm-up grows the arena and the task's commit slices.
	route()

	if avg := testing.AllocsPerRun(100, route); avg != 0 {
		t.Errorf("steady-state routeNet: %.2f allocs/run, want 0", avg)
	}
}

// TestRouteOneTailSteadyStateAllocs extends the steady-state guard to
// the per-net tail that runs after the search: releaseEscapes checks
// the reserved pin escapes against the routed metal in the arena's
// stamped grid, so it allocates nothing either.
func TestRouteOneTailSteadyStateAllocs(t *testing.T) {
	f := fabric()
	r := NewRouter(f, DefaultConfig(true))
	net := mkNet(0, geom.Point{X: 2, Y: 2}, geom.Point{X: 40, Y: 30}, geom.Point{X: 20, Y: 50})
	task := newTask(&netlist.Circuit{Fabric: f, Nets: []*netlist.Net{net}}, nil, 0)
	r.reserveAndMaterialize([]*routeTask{task})
	escapes := task.escapes
	if len(escapes) == 0 {
		t.Fatal("no escapes reserved")
	}
	id := int32(net.ID) + 1

	route := func() {
		if !r.routeNet(task) {
			t.Fatal("route failed")
		}
		r.releaseEscapes(task)
		// Undo the route and the release so the next iteration sees the
		// same problem: clear occupancy, re-reserve the pins and their
		// escapes, and reslice the commit buffers to keep their capacity.
		r.clearNet(task)
		for _, p := range net.Pins {
			r.occ[r.idx(p.X, p.Y, p.Layer-1)] = id
		}
		for _, c := range escapes {
			r.occ[r.idx(c.x, c.y, c.l)] = id
		}
		task.escapes = escapes
		task.wires = task.wires[:0]
		task.vias = task.vias[:0]
	}
	route() // warm-up

	if avg := testing.AllocsPerRun(100, route); avg != 0 {
		t.Errorf("steady-state routeNet+releaseEscapes: %.2f allocs/run, want 0", avg)
	}
}

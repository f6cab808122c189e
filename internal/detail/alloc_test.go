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

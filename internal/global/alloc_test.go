package global

import (
	"math"
	"reflect"
	"testing"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/plan"
)

// TestGlobalSearchSteadyStateAllocs pins the global arena discipline
// with the runtime's allocation counter: once the searchArena has grown
// to the tile graph, a repeated A* on a fixed problem allocates nothing,
// its returned path included (it aliases the arena). It is the dynamic
// twin of the hotalloc analyzer's astar root. Two grid sizes show the
// count does not scale with the tile graph.
func TestGlobalSearchSteadyStateAllocs(t *testing.T) {
	for _, size := range []int{90, 600} {
		f := grid.New(size, size, 3)
		r := NewRouter(f, StitchAware())
		tw, th := f.TilesX(), f.TilesY()
		sources := map[plan.TilePoint]bool{{TX: 0, TY: 0}: true, {TX: 1, TY: 0}: true}
		target := plan.TilePoint{TX: tw - 1, TY: th - 1}
		search := func() {
			if path := r.astar(sources, target); len(path) == 0 {
				t.Fatal("search failed")
			}
		}
		search() // warm-up grows the arena
		if avg := testing.AllocsPerRun(50, search); avg != 0 {
			t.Errorf("%dx%d tiles: steady-state astar %.2f allocs/run, want 0", tw, th, avg)
		}
	}
}

// TestGlobalArenaStampWrap checks that clearing the arena when its stamp
// counter would wrap is invisible: a router whose counter starts just
// below the wrap routes the same nets to the same plans as a fresh one.
func TestGlobalArenaStampWrap(t *testing.T) {
	nets := func(r *Router) []*plan.NetPlan {
		var out []*plan.NetPlan
		for i := 0; i < 6; i++ {
			out = append(out, r.RouteNet(net(i,
				geom.Point{X: 3 + 7*i, Y: 4}, geom.Point{X: 80 - 5*i, Y: 70 - 3*i}, geom.Point{X: 40, Y: 10 + 9*i})))
		}
		return out
	}
	fresh := NewRouter(fabric(), StitchAware())
	wrapped := NewRouter(fabric(), StitchAware())
	wrapped.arena.cur = math.MaxUint32 - 2
	want, got := nets(fresh), nets(wrapped)
	if wrapped.arena.cur >= fresh.arena.cur {
		t.Fatalf("arena stamp %d: the wrap was not exercised", wrapped.arena.cur)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("plans differ after the arena's stamp wrap")
	}
}

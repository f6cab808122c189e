package detail

import (
	"context"
	"math"
	"math/rand"
	"reflect"
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
	r := held(NewRouter(f, DefaultConfig(true)))
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
	r := held(NewRouter(f, DefaultConfig(true)))
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

// TestScratchEpochWrap runs a circuit on a pooled-style arena whose two
// stamp epochs, the node stamps (int16) and the mark-grid stamps
// (int32), are a few uses short of wrapping, with a stale stamp in every
// cell: one of the values an epoch takes right after its wrap, whether
// the wrap restarts it or lets it overflow. A borrowed arena outlives
// its runs, so a long-lived process reaches both wraps; the routes must
// equal those of a fresh arena, and the epoch a wrap starts must be
// held by no cell.
func TestScratchEpochWrap(t *testing.T) {
	f := fabric()
	rng := rand.New(rand.NewSource(3))
	c := &netlist.Circuit{Name: "wrap", Fabric: f}
	for id := 0; id < 12; id++ {
		var pts []geom.Point
		for k := 0; k < 2+rng.Intn(2); k++ {
			pts = append(pts, geom.Point{X: rng.Intn(f.XTracks), Y: rng.Intn(f.YTracks)})
		}
		c.Nets = append(c.Nets, mkNet(id, pts...))
	}
	cfg := DefaultConfig(true)
	want := held(NewRouter(f, cfg)).Run(c, nil)

	const before = 3
	r := NewRouter(f, cfg)
	n := r.X * r.Y * r.L
	sc := &searchCtx{
		nodes:    make([]nodeState, n),
		mark:     make([]stampVal, n),
		mark2:    make([]int32, n),
		curStamp: 0x7fff - before,
		mcur:     math.MaxInt32 - before,
	}
	for i := range sc.nodes {
		k := i / 2 % 4
		stale16, stale32 := int16(1+k), int32(1+k)
		if i%2 == 1 {
			stale16, stale32 = math.MinInt16+int16(k), math.MinInt32+int32(k)
		}
		sc.nodes[i] = nodeState{stamp: stale16, tstamp: stale16, prevMv: int8(i % 7)}
		sc.mark[i] = stampVal{stamp: stale32}
		sc.mark2[i] = stale32
	}
	r.bind(sc)
	got := r.Run(c, nil)
	if sc.curStamp >= 0x7fff-before || sc.mcur >= math.MaxInt32-before {
		t.Fatalf("epochs did not wrap: node stamp %d, mark stamp %d", sc.curStamp, sc.mcur)
	}
	if want.Connects <= before || !reflect.DeepEqual(got, want) {
		t.Fatalf("routes after the wraps differ from a fresh arena's (%d searches)", want.Connects)
	}

	for i := range sc.mark {
		sc.mark[i].stamp = [2]int32{1, math.MinInt32}[i%2]
		sc.mark2[i] = sc.mark[i].stamp
	}
	sc.mcur = math.MaxInt32
	e := sc.growMark(f.Bounds(), r.L, n)
	for i := range sc.mark {
		if sc.mark[i].stamp == e || sc.mark2[i] == e {
			t.Fatalf("mark epoch %d after the wrap is still held by cell %d", e, i)
		}
	}
}

// TestOnlyECORunsPoolScratch checks the free list's keeping policy: a
// cold run neither leaves an arena behind nor takes a pooled one, and
// an ECO run takes the free arena and hands it back.
func TestOnlyECORunsPoolScratch(t *testing.T) {
	f := fabric()
	c := &netlist.Circuit{Name: "pool", Fabric: f, Nets: []*netlist.Net{mkNet(0, geom.Point{X: 2, Y: 2}, geom.Point{X: 40, Y: 30})}}
	free := func() []*searchCtx {
		scratch.mu.Lock()
		defer scratch.mu.Unlock()
		return append([]*searchCtx(nil), scratch.free...)
	}
	scratch.mu.Lock()
	saved := scratch.free
	scratch.free = nil
	scratch.mu.Unlock()
	defer func() {
		scratch.mu.Lock()
		scratch.free = saved
		scratch.mu.Unlock()
	}()

	cold := func() { NewRouter(f, DefaultConfig(true)).Run(c, nil) }
	patch := func() {
		t.Helper()
		if _, _, err := NewRouter(f, DefaultConfig(true)).RunPatch(context.Background(), c, nil, &Memo{}); err != nil {
			t.Fatal(err)
		}
	}
	cold()
	if n := len(free()); n != 0 {
		t.Fatalf("a cold run left %d arenas on the free list", n)
	}
	patch()
	want := free()
	if len(want) != 1 {
		t.Fatalf("an ECO run left %d free arenas, want 1", len(want))
	}
	cold()
	if got := free(); !reflect.DeepEqual(got, want) {
		t.Fatalf("a cold run took the pooled arena: %d free, want 1", len(got))
	}
	patch()
	if got := free(); !reflect.DeepEqual(got, want) {
		t.Fatalf("an ECO run did not hand back the arena it took: %d free, want the same 1", len(got))
	}
}

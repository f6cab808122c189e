package global

import (
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
	"stitchroute/internal/steiner"
)

func fabric() *grid.Fabric { return grid.New(90, 90, 3) } // 6x6 tiles

func net(id int, pts ...geom.Point) *netlist.Net {
	n := &netlist.Net{ID: id, Name: "n"}
	for _, p := range pts {
		n.Pins = append(n.Pins, netlist.Pin{Point: p, Layer: 1})
	}
	return n
}

func TestCapacities(t *testing.T) {
	f := fabric()
	r := NewRouter(f, StitchAware())
	// 3 layers: 2 horizontal (1,3), 1 vertical (2).
	// Horizontal edge capacity: 15 tracks * 2 layers = 30.
	if r.hCap[0] != 30 {
		t.Errorf("hCap = %d, want 30", r.hCap[0])
	}
	// Vertical edge capacity reduced: 14 usable tracks * 1 layer = 14.
	if r.vCap[0] != 14 {
		t.Errorf("vCap = %d, want 14", r.vCap[0])
	}
	// Vertex capacity: 12 non-SUR tracks * 1 vertical layer.
	if r.endCap[0] != 12 {
		t.Errorf("endCap = %d, want 12", r.endCap[0])
	}

	rb := NewRouter(f, Baseline())
	if rb.vCap[0] != 15 {
		t.Errorf("baseline vCap = %d, want 15", rb.vCap[0])
	}
}

func TestTwoPinRoute(t *testing.T) {
	f := fabric()
	r := NewRouter(f, StitchAware())
	// Pins in tiles (0,0) and (3,0): expect a 3-edge horizontal route.
	np := r.RouteNet(net(0, geom.Point{X: 3, Y: 3}, geom.Point{X: 50, Y: 3}))
	if len(np.Edges) != 3 {
		t.Fatalf("%d edges, want 3: %v", len(np.Edges), np.Edges)
	}
	for _, e := range np.Edges {
		if !e.Horizontal() {
			t.Errorf("straight horizontal route used vertical edge %v", e)
		}
	}
	if len(np.Segs) != 1 || np.Segs[0].Dir != geom.Horizontal {
		t.Errorf("segments = %+v", np.Segs)
	}
	if r.Wirelength() != 3*15 {
		t.Errorf("wirelength = %d, want 45", r.Wirelength())
	}
}

func TestLocalNetNoEdges(t *testing.T) {
	r := NewRouter(fabric(), StitchAware())
	np := r.RouteNet(net(0, geom.Point{X: 1, Y: 1}, geom.Point{X: 10, Y: 10}))
	if len(np.Edges) != 0 || len(np.Segs) != 0 {
		t.Errorf("local net produced global route: %+v", np)
	}
	if np.Level != 0 {
		t.Errorf("level = %d, want 0", np.Level)
	}
}

func TestMultiPinConnected(t *testing.T) {
	r := NewRouter(fabric(), StitchAware())
	np := r.RouteNet(net(0,
		geom.Point{X: 3, Y: 3},    // tile (0,0)
		geom.Point{X: 80, Y: 3},   // tile (5,0)
		geom.Point{X: 3, Y: 80},   // tile (0,5)
		geom.Point{X: 80, Y: 80})) // tile (5,5)
	// All pin tiles must be connected by the route tree.
	adj := make(map[plan.TilePoint][]plan.TilePoint)
	for _, e := range np.Edges {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	visited := map[plan.TilePoint]bool{np.PinTiles[0]: true}
	stack := []plan.TilePoint{np.PinTiles[0]}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !visited[v] {
				visited[v] = true
				stack = append(stack, v)
			}
		}
	}
	for _, pt := range np.PinTiles {
		if !visited[pt] {
			t.Errorf("pin tile %v not connected", pt)
		}
	}
}

func TestLineEndDemandCommitted(t *testing.T) {
	f := fabric()
	r := NewRouter(f, StitchAware())
	// Vertical route from tile (2,0) to (2,3): line ends at both end tiles.
	r.RouteNet(net(0, geom.Point{X: 33, Y: 3}, geom.Point{X: 33, Y: 50}))
	tw := f.TilesX()
	if r.endDem[0*tw+2] != 1 || r.endDem[3*tw+2] != 1 {
		t.Errorf("line-end demands not committed: %v %v", r.endDem[0*tw+2], r.endDem[3*tw+2])
	}
	tvof, mvof := r.Overflow()
	if tvof != 0 || mvof != 0 {
		t.Errorf("unexpected overflow %d/%d", tvof, mvof)
	}
}

func TestLineEndCostSpreadsEnds(t *testing.T) {
	// Route many parallel vertical nets ending in the same tile row.
	// With line-end cost, ends should spread across neighboring tiles,
	// giving less vertex overflow than without.
	build := func(cfg Config) (tvof int) {
		f := grid.New(90, 90, 3)
		r := NewRouter(f, cfg)
		id := 0
		// 30 nets all from tile (2,0) area to (2,3) area: heavy line-end
		// pressure on tiles in column 2 (capacity 12).
		for i := 0; i < 30; i++ {
			x := 31 + (i % 13)
			r.RouteNet(net(id, geom.Point{X: x, Y: 3 + i%5}, geom.Point{X: x, Y: 50 + i%5}))
			id++
		}
		tvof, _ = r.Overflow()
		return tvof
	}
	with := build(StitchAware())
	without := build(EdgeOnly())
	if with > without {
		t.Errorf("line-end cost increased overflow: with=%d without=%d", with, without)
	}
}

func TestRouteAllBenchmarks(t *testing.T) {
	spec, _ := bench.ByName("S9234")
	c := bench.Generate(spec)
	r := NewRouter(c.Fabric, StitchAware())
	plans := r.RouteAll(c)
	if len(plans) != len(c.Nets) {
		t.Fatalf("%d plans for %d nets", len(plans), len(c.Nets))
	}
	for i, p := range plans {
		if p == nil {
			t.Fatalf("net %d has no plan", i)
		}
		if p.NetID != c.Nets[i].ID {
			t.Fatalf("plan %d has NetID %d", i, p.NetID)
		}
	}
	if r.Wirelength() == 0 {
		t.Error("zero wirelength after routing a benchmark")
	}
}

func TestBottomUpOrderIsByLevel(t *testing.T) {
	f := fabric()
	c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{
		net(0, geom.Point{X: 0, Y: 0}, geom.Point{X: 85, Y: 85}), // global
		net(1, geom.Point{X: 1, Y: 1}, geom.Point{X: 5, Y: 5}),   // local
	}}
	r := NewRouter(f, StitchAware())
	plans := r.RouteAll(c)
	if plans[1].Level != 0 || plans[0].Level <= 0 {
		t.Errorf("levels: %d %d", plans[0].Level, plans[1].Level)
	}
}

// helpers shared with refine_test.go
func pt(x, y int) geom.Point { return geom.Point{X: x, Y: y} }

func circuitOf(nets ...*netlist.Net) *netlist.Circuit {
	return &netlist.Circuit{Name: "t", Fabric: fabric(), Nets: nets}
}

func TestSteinerDecompositionSavesWirelength(t *testing.T) {
	// Cross-shaped 4-pin net on an empty graph: decomposing along the
	// RSMT shares the trunks through the center Steiner tile, so the
	// global wirelength is exactly the RSMT length over the pin tiles
	// (a spanning tree over the pins alone would be longer).
	f := grid.New(150, 150, 3)
	r := NewRouter(f, StitchAware())
	n := net(0,
		geom.Point{X: 7, Y: 75}, geom.Point{X: 140, Y: 75},
		geom.Point{X: 75, Y: 7}, geom.Point{X: 75, Y: 140})
	np := r.RouteNet(n)
	pts := make([]geom.Point, len(np.PinTiles))
	for i, tp := range np.PinTiles {
		pts[i] = geom.Point{X: tp.TX, Y: tp.TY}
	}
	tree := steiner.Build(pts)
	if want := tree.Length() * f.StitchPitch; r.Wirelength() != want {
		t.Errorf("global WL = %d, want the RSMT decomposition's %d", r.Wirelength(), want)
	}
	if len(tree.Steiner) == 0 {
		t.Fatal("cross net's RSMT has no Steiner point; the test no longer exercises trunk sharing")
	}
}

package detail

import (
	"reflect"
	"testing"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

func fabric() *grid.Fabric { return grid.New(60, 60, 3) }

// held binds fresh scratch to r for the test's lifetime, so tests can
// drive the per-net steps directly and read the occupancy after a run.
func held(r *Router) *Router {
	r.bind(new(searchCtx))
	return r
}

func mkNet(id int, pts ...geom.Point) *netlist.Net {
	n := &netlist.Net{ID: id, Name: "n"}
	for _, p := range pts {
		n.Pins = append(n.Pins, netlist.Pin{Point: p, Layer: 1})
	}
	return n
}

// connected reports whether all pins of the net are connected by its
// routed geometry (wires sharing cells on a layer, vias linking layers).
func connected(rt plan.NetRoute, net *netlist.Net) bool {
	cells := map[cell]int{} // cell -> component (DSU over ints)
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
	touch := func(c cell) int {
		if id, ok := cells[c]; ok {
			return id
		}
		id := len(parent)
		parent = append(parent, id)
		cells[c] = id
		return id
	}
	for _, w := range rt.Wires {
		var prev = -1
		forEachCell(w, func(c cell) {
			id := touch(c)
			if prev >= 0 {
				union(prev, id)
			}
			prev = id
		})
	}
	for _, v := range rt.Vias {
		a, okA := cells[cell{v.X, v.Y, v.Layer - 1}]
		b, okB := cells[cell{v.X, v.Y, v.Layer}]
		if okA && okB {
			union(a, b)
		}
	}
	root := -1
	for _, p := range net.Pins {
		id, ok := cells[cell{p.X, p.Y, p.Layer - 1}]
		if !ok {
			return len(net.Pins) == 1
		}
		if root == -1 {
			root = find(id)
		} else if find(id) != root {
			return false
		}
	}
	return true
}

func TestSimpleTwoPin(t *testing.T) {
	f := fabric()
	r := NewRouter(f, DefaultConfig(true))
	c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{
		mkNet(0, geom.Point{X: 2, Y: 2}, geom.Point{X: 12, Y: 9}),
	}}
	res := r.Run(c, nil)
	if res.Failed != 0 {
		t.Fatalf("failed = %d", res.Failed)
	}
	if !res.Routes[0].Routed {
		t.Fatal("net not routed")
	}
	if !connected(res.Routes[0], c.Nets[0]) {
		t.Error("pins not connected")
	}
}

func TestCrossStitchNet(t *testing.T) {
	f := fabric()
	r := NewRouter(f, DefaultConfig(true))
	// Pins on opposite sides of the stitching line at x=15.
	c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{
		mkNet(0, geom.Point{X: 10, Y: 5}, geom.Point{X: 20, Y: 25}),
	}}
	res := r.Run(c, nil)
	if !res.Routes[0].Routed || !connected(res.Routes[0], c.Nets[0]) {
		t.Fatal("cross-stitch net not routed")
	}
	// Hard constraints on the result.
	for _, w := range res.Routes[0].Wires {
		if w.Orient == geom.Vertical && f.IsStitchCol(w.Fixed) && w.Span.Len() > 1 {
			t.Errorf("vertical wire on stitching column: %v", w)
		}
	}
	for _, v := range res.Routes[0].Vias {
		if f.IsStitchCol(v.X) {
			t.Errorf("via on stitching column: %+v", v)
		}
	}
}

func TestPinOnStitchColumnEscapes(t *testing.T) {
	f := fabric()
	r := NewRouter(f, DefaultConfig(true))
	c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{
		mkNet(0, geom.Point{X: 15, Y: 5}, geom.Point{X: 25, Y: 40}),
	}}
	res := r.Run(c, nil)
	if !res.Routes[0].Routed || !connected(res.Routes[0], c.Nets[0]) {
		t.Fatal("net with stitch-column pin not routed")
	}
	// Any via on the stitch column must be at the pin itself.
	for _, v := range res.Routes[0].Vias {
		if f.IsStitchCol(v.X) && !(v.X == 15 && v.Y == 5) {
			t.Errorf("via violation away from pin: %+v", v)
		}
	}
}

func TestPlannedSegmentsUsed(t *testing.T) {
	f := fabric()
	r := NewRouter(f, DefaultConfig(true))
	net := mkNet(3, geom.Point{X: 5, Y: 5}, geom.Point{X: 5, Y: 50})
	// Planned vertical segment in panel 0 layer 2 track 5 covering tile
	// rows 0..3 (y 0..59).
	seg := &plan.GSeg{
		NetID: 3, Dir: geom.Vertical, Panel: 0,
		Span: geom.Interval{Lo: 0, Hi: 3}, Layer: 2,
		Tracks: []int{5, 5, 5, 5},
	}
	p := &plan.NetPlan{NetID: 3, Segs: []*plan.GSeg{seg}}
	c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{net}}
	res := r.Run(c, []*plan.NetPlan{p})
	if !res.Routes[0].Routed || !connected(res.Routes[0], net) {
		t.Fatal("planned net not routed")
	}
	// The planned x=5 vertical wire should appear in the geometry.
	foundPlanned := false
	for _, w := range res.Routes[0].Wires {
		if w.Orient == geom.Vertical && w.Layer == 2 && w.Fixed == 5 && w.Span.Len() > 20 {
			foundPlanned = true
		}
	}
	if !foundPlanned {
		t.Error("planned segment not present in final geometry")
	}
	if res.Ripped != 0 {
		t.Errorf("ripped = %d", res.Ripped)
	}
}

func TestDoglegMaterialization(t *testing.T) {
	f := fabric()
	r := NewRouter(f, DefaultConfig(true))
	net := mkNet(0, geom.Point{X: 3, Y: 3}, geom.Point{X: 9, Y: 55})
	seg := &plan.GSeg{
		NetID: 0, Dir: geom.Vertical, Panel: 0,
		Span: geom.Interval{Lo: 0, Hi: 3}, Layer: 2,
		Tracks: []int{3, 3, 9, 9}, // dogleg between rows 1 and 2
	}
	p := &plan.NetPlan{NetID: 0, Segs: []*plan.GSeg{seg}}
	c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{net}}
	res := r.Run(c, []*plan.NetPlan{p})
	if !res.Routes[0].Routed || !connected(res.Routes[0], net) {
		t.Fatal("dogleg net not routed")
	}
}

func TestBlockedNetRipsAndReroutes(t *testing.T) {
	f := fabric()
	r := NewRouter(f, DefaultConfig(true))
	// Net 0's planned segment collides with net 1's (same panel, same
	// track, overlapping rows): the second materialization drops the wire;
	// both nets must still route.
	mk := func(id int) (*netlist.Net, *plan.NetPlan) {
		n := mkNet(id, geom.Point{X: 3 + id, Y: 3}, geom.Point{X: 3 + id, Y: 40})
		seg := &plan.GSeg{
			NetID: id, Dir: geom.Vertical, Panel: 0,
			Span: geom.Interval{Lo: 0, Hi: 2}, Layer: 2,
			Tracks: []int{7, 7, 7},
		}
		return n, &plan.NetPlan{NetID: id, Segs: []*plan.GSeg{seg}}
	}
	n0, p0 := mk(0)
	n1, p1 := mk(1)
	c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{n0, n1}}
	res := r.Run(c, []*plan.NetPlan{p0, p1})
	for i := range res.Routes {
		if !res.Routes[i].Routed || !connected(res.Routes[i], c.Nets[i]) {
			t.Fatalf("net %d not routed after conflict", i)
		}
	}
}

func TestTrimRemovesDanglingEnds(t *testing.T) {
	f := fabric()
	r := NewRouter(f, DefaultConfig(true))
	// Planned segment spans 4 tile rows (y up to 59) but both pins sit in
	// the middle; trim should cut the tails.
	net := mkNet(0, geom.Point{X: 4, Y: 20}, geom.Point{X: 8, Y: 33})
	seg := &plan.GSeg{
		NetID: 0, Dir: geom.Vertical, Panel: 0,
		Span: geom.Interval{Lo: 0, Hi: 3}, Layer: 2,
		Tracks: []int{6, 6, 6, 6},
	}
	p := &plan.NetPlan{NetID: 0, Segs: []*plan.GSeg{seg}}
	c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{net}}
	res := r.Run(c, []*plan.NetPlan{p})
	if !res.Routes[0].Routed {
		t.Fatal("not routed")
	}
	for _, w := range res.Routes[0].Wires {
		if w.Orient == geom.Vertical && w.Fixed == 6 && w.Layer == 2 {
			if w.Span.Lo < 15 || w.Span.Hi > 38 {
				t.Errorf("dangling tail not trimmed: %v", w)
			}
		}
	}
	if !connected(res.Routes[0], net) {
		t.Error("trim disconnected the net")
	}
}

func TestOccupancyConsistentAfterRun(t *testing.T) {
	f := fabric()
	r := held(NewRouter(f, DefaultConfig(true)))
	c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{
		mkNet(0, geom.Point{X: 2, Y: 2}, geom.Point{X: 40, Y: 40}),
		mkNet(1, geom.Point{X: 2, Y: 40}, geom.Point{X: 40, Y: 2}),
		mkNet(2, geom.Point{X: 20, Y: 2}, geom.Point{X: 20, Y: 55}),
	}}
	res := r.Run(c, nil)
	// Rebuild expected occupancy from the reported geometry and compare:
	// every wire cell must be owned by its net.
	for i := range res.Routes {
		id := int32(res.Routes[i].NetID)
		for _, w := range res.Routes[i].Wires {
			forEachCell(w, func(cl cell) {
				got := r.occ[r.idx(cl.x, cl.y, cl.l)]
				if got != id+1 {
					t.Fatalf("cell %v of net %d owned by %d", cl, id, got-1)
				}
			})
		}
	}
	// No two nets share a cell (implied by the above since occ is single-
	// valued, but check wires pairwise for overlap anyway).
	seen := map[cell]int{}
	for i := range res.Routes {
		for _, w := range res.Routes[i].Wires {
			forEachCell(w, func(cl cell) {
				if prev, ok := seen[cl]; ok && prev != i {
					t.Fatalf("nets %d and %d overlap at %v", prev, i, cl)
				}
				seen[cl] = i
			})
		}
	}
}

func TestMergedWires(t *testing.T) {
	wires := []geom.Segment{
		geom.HSeg(1, 5, 0, 4),
		geom.HSeg(1, 5, 5, 9),   // touching -> merge
		geom.HSeg(1, 5, 20, 25), // separate
		geom.VSeg(2, 3, 0, 4),
	}
	m := MergedWires(wires)
	if len(m) != 3 {
		t.Fatalf("merged to %d wires, want 3: %v", len(m), m)
	}
	var found bool
	for _, w := range m {
		if w.Orient == geom.Horizontal && w.Span == (geom.Interval{Lo: 0, Hi: 9}) {
			found = true
		}
	}
	if !found {
		t.Error("touching wires not merged")
	}

	// Interleaved tracks: groups come out in first-appearance order
	// (V x=3, then H y=7, then H y=5), each group's spans ascending;
	// empty wires are dropped and do not place a group.
	wires = []geom.Segment{
		{Orient: geom.Horizontal, Layer: 1, Fixed: 1, Span: geom.Interval{Lo: 4, Hi: 3}},
		geom.VSeg(2, 3, 10, 12),
		geom.HSeg(1, 7, 30, 40),
		geom.HSeg(1, 5, 8, 9),
		geom.VSeg(2, 3, 0, 4),
		geom.HSeg(1, 7, 0, 2),
		geom.HSeg(1, 5, 0, 7),
		geom.HSeg(1, 7, 3, 5),
		geom.HSeg(1, 1, 0, 0),
	}
	want := []geom.Segment{
		geom.VSeg(2, 3, 0, 4),
		geom.VSeg(2, 3, 10, 12),
		geom.HSeg(1, 7, 0, 5),
		geom.HSeg(1, 7, 30, 40),
		geom.HSeg(1, 5, 0, 9),
		geom.HSeg(1, 1, 0, 0),
	}
	if got := MergedWires(wires); !reflect.DeepEqual(got, want) {
		t.Errorf("MergedWires = %v, want %v", got, want)
	}
	if got := MergedWires(wires[:1]); got != nil {
		t.Errorf("MergedWires of only empty wires = %v, want nil", got)
	}
}

func TestWirelength(t *testing.T) {
	routes := []plan.NetRoute{{
		Wires: []geom.Segment{
			geom.HSeg(1, 5, 0, 4),  // length 4
			geom.HSeg(1, 5, 2, 8),  // overlaps -> merged to 0..8 (length 8)
			geom.VSeg(2, 3, 0, 10), // length 10
		},
	}}
	if got := Wirelength(routes); got != 18 {
		t.Errorf("wirelength = %d, want 18", got)
	}
}

func TestUnroutableNetReported(t *testing.T) {
	f := grid.New(30, 30, 1) // single layer: no via escape
	r := NewRouter(f, DefaultConfig(true))
	// A wall of pins across row 10 splits the chip; net 0 cannot cross.
	var wallPts []geom.Point
	for x := 0; x < 30; x++ {
		wallPts = append(wallPts, geom.Point{X: x, Y: 10})
	}
	blocker := mkNet(1, wallPts...)
	target := mkNet(0, geom.Point{X: 5, Y: 2}, geom.Point{X: 5, Y: 25})
	c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{target, blocker}}
	res := r.Run(c, nil)
	if res.Routes[0].Routed {
		t.Error("impossible net reported routed")
	}
	if res.Failed != 1 {
		t.Errorf("failed = %d, want 1", res.Failed)
	}
	if len(res.Routes[0].Wires) != 0 {
		t.Error("failed net left geometry behind")
	}
	if !res.Routes[1].Routed {
		t.Error("wall net should route along itself")
	}
}

func TestSearchStatsReported(t *testing.T) {
	f := fabric()
	r := NewRouter(f, DefaultConfig(true))
	c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{
		mkNet(0, geom.Point{X: 2, Y: 2}, geom.Point{X: 40, Y: 40}),
	}}
	res := r.Run(c, nil)
	if res.Connects == 0 {
		t.Error("no connects counted")
	}
	if res.Expansions == 0 {
		t.Error("no expansions counted")
	}
}

func TestNegotiationRecoversFailedNet(t *testing.T) {
	// One horizontal layer. The blocker (smaller HPWL, routed first)
	// snakes across the target's only corridor; plain rip-up cannot fix
	// the target, negotiation evicts the blocker and reroutes both.
	f := grid.New(30, 30, 1)
	// Blocker: a short net whose direct route crosses column 5 rows 2..25.
	blocker := mkNet(1, geom.Point{X: 4, Y: 14}, geom.Point{X: 7, Y: 14})
	target := mkNet(0, geom.Point{X: 5, Y: 2}, geom.Point{X: 5, Y: 25})
	// Wall pins force the target through column 4..7 at row 14: block
	// every other column at that row with reserved pins of a third net.
	var wallPts []geom.Point
	for x := 0; x < 30; x++ {
		if x < 4 || x > 7 {
			wallPts = append(wallPts, geom.Point{X: x, Y: 14})
		}
	}
	wall := mkNet(2, wallPts...)
	run := func(negotiate bool) *Result {
		cfg := DefaultConfig(true)
		cfg.Negotiate = negotiate
		r := NewRouter(f, cfg)
		c := &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{target, blocker, wall}}
		return r.Run(c, nil)
	}
	without := run(false)
	with := run(true)
	if with.Failed > without.Failed {
		t.Errorf("negotiation increased failures: %d > %d", with.Failed, without.Failed)
	}
	// Consistency: every net's final record matches its geometry.
	for i, rt := range with.Routes {
		if rt.Routed && len(rt.Wires) == 0 {
			t.Errorf("net %d marked routed without geometry", i)
		}
		if !rt.Routed && len(rt.Wires) != 0 {
			t.Errorf("net %d marked failed with geometry", i)
		}
	}
}

func TestNegotiationConsistencyUnderPressure(t *testing.T) {
	// Saturated single-layer instance: negotiation must keep occupancy and
	// result records consistent even when swaps fail.
	// 20 horizontal nets on a single layer with only 10 distinct rows:
	// at least half must fail, exercising negotiation heavily.
	f := grid.New(45, 30, 1)
	var nets []*netlist.Net
	for i := 0; i < 20; i++ {
		nets = append(nets, mkNet(i,
			geom.Point{X: 1 + i/10, Y: 2 * (i % 10)}, geom.Point{X: 40 + i/10, Y: 2*(i%10) + 1}))
	}
	cfg := DefaultConfig(true)
	cfg.Negotiate = true
	r := NewRouter(f, cfg)
	c := &netlist.Circuit{Name: "press", Fabric: f, Nets: nets}
	res := r.Run(c, nil)
	// Geometry of routed nets must still be mutually exclusive.
	seen := map[cell]int{}
	for i := range res.Routes {
		for _, w := range res.Routes[i].Wires {
			forEachCell(w, func(cl cell) {
				if prev, ok := seen[cl]; ok && prev != i {
					t.Fatalf("nets %d and %d overlap at %v after negotiation", prev, i, cl)
				}
				seen[cl] = i
			})
		}
	}
	routed := 0
	for _, rt := range res.Routes {
		if rt.Routed {
			routed++
		}
	}
	if routed+res.Failed != len(nets) {
		t.Errorf("routed %d + failed %d != %d", routed, res.Failed, len(nets))
	}
}

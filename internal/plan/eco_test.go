package plan

import (
	"reflect"
	"testing"

	"stitchroute/internal/geom"
)

// samplePlan returns a fresh net plan with every field set, so each
// mutation below changes exactly one compared value.
func samplePlan() *NetPlan {
	seg := func(dir geom.Orientation, panel, lo, hi int) *GSeg {
		return &GSeg{
			NetID: 7, Dir: dir, Panel: panel, Span: geom.Interval{Lo: lo, Hi: hi},
			Layer: 2, Tracks: []int{3, 4}, BadEnds: 1,
			LoCrossL: true, HiCrossR: true,
		}
	}
	return &NetPlan{
		NetID: 7, Level: 2, BadEnds: 1,
		Edges:    []TileEdge{NewTileEdge(tp(1, 1), tp(2, 1)), NewTileEdge(tp(2, 1), tp(2, 2))},
		PinTiles: []TilePoint{tp(1, 1), tp(2, 2)},
		Segs:     []*GSeg{seg(geom.Horizontal, 1, 1, 2), seg(geom.Vertical, 2, 1, 2)},
	}
}

func sampleRoute() NetRoute {
	return NetRoute{
		NetID: 7, Routed: true,
		Wires: []geom.Segment{geom.HSeg(1, 5, 2, 9), geom.VSeg(2, 9, 5, 12)},
		Vias:  []Via{{X: 9, Y: 5, Layer: 1}},
	}
}

// fieldNames lists a struct type's field names.
func fieldNames(v any) []string {
	t := reflect.TypeOf(v)
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = t.Field(i).Name
	}
	return names
}

// TestNetPlanEqual: flipping any one compared field of a plan or of one
// of its segments makes Equal false in both directions. The predicate
// decides whether ECO replay may reuse a net's recorded detail route.
func TestNetPlanEqual(t *testing.T) {
	planMuts := map[string]func(p *NetPlan){
		"NetID":    func(p *NetPlan) { p.NetID++ },
		"Level":    func(p *NetPlan) { p.Level++ },
		"BadEnds":  func(p *NetPlan) { p.BadEnds++ },
		"Edges":    func(p *NetPlan) { p.Edges[1] = NewTileEdge(tp(2, 1), tp(3, 1)) },
		"PinTiles": func(p *NetPlan) { p.PinTiles[0] = tp(0, 1) },
		"Segs":     func(p *NetPlan) { p.Segs[1], p.Segs[0] = p.Segs[0], p.Segs[1] },
	}
	segMuts := map[string]func(s *GSeg){
		"NetID":    func(s *GSeg) { s.NetID++ },
		"Dir":      func(s *GSeg) { s.Dir = geom.Vertical },
		"Panel":    func(s *GSeg) { s.Panel++ },
		"Span":     func(s *GSeg) { s.Span.Hi++ },
		"Layer":    func(s *GSeg) { s.Layer++ },
		"Tracks":   func(s *GSeg) { s.Tracks[1]++ },
		"BadEnds":  func(s *GSeg) { s.BadEnds++ },
		"Ripped":   func(s *GSeg) { s.Ripped = !s.Ripped },
		"LoCrossL": func(s *GSeg) { s.LoCrossL = !s.LoCrossL },
		"LoCrossR": func(s *GSeg) { s.LoCrossR = !s.LoCrossR },
		"HiCrossL": func(s *GSeg) { s.HiCrossL = !s.HiCrossL },
		"HiCrossR": func(s *GSeg) { s.HiCrossR = !s.HiCrossR },
	}
	for _, f := range fieldNames(NetPlan{}) {
		if planMuts[f] == nil {
			t.Errorf("no mutation for NetPlan.%s", f)
		}
	}
	for _, f := range fieldNames(GSeg{}) {
		if segMuts[f] == nil {
			t.Errorf("no mutation for GSeg.%s", f)
		}
	}

	if a, b := samplePlan(), samplePlan(); !a.Equal(b) {
		t.Fatal("identical plans are not equal")
	}
	check := func(name string, mut func(p *NetPlan)) {
		a, b := samplePlan(), samplePlan()
		mut(b)
		if a.Equal(b) || b.Equal(a) {
			t.Errorf("%s flipped: plans still equal", name)
		}
	}
	for name, mut := range planMuts {
		check("NetPlan."+name, mut)
	}
	for name, mut := range segMuts {
		check("GSeg."+name, func(p *NetPlan) { mut(p.Segs[0]) })
	}
	// Length changes, not just value changes, are caught.
	check("len(Edges)", func(p *NetPlan) { p.Edges = p.Edges[:1] })
	check("len(PinTiles)", func(p *NetPlan) { p.PinTiles = p.PinTiles[:1] })
	check("len(Segs)", func(p *NetPlan) { p.Segs = p.Segs[:1] })
	check("len(Tracks)", func(p *NetPlan) { p.Segs[0].Tracks = p.Segs[0].Tracks[:1] })
	check("nil Seg", func(p *NetPlan) { p.Segs[0] = nil })

	var none *NetPlan
	if !none.Equal(nil) {
		t.Error("two nil plans are not equal")
	}
	if none.Equal(samplePlan()) || samplePlan().Equal(nil) {
		t.Error("nil plan equals a non-nil plan")
	}
	a, b := samplePlan(), samplePlan()
	a.Segs[0], b.Segs[0] = nil, nil
	if !a.Equal(b) {
		t.Error("plans with the same nil segment are not equal")
	}
}

// TestNetRouteEqual: flipping any one field of a detailed route makes
// Equal false in both directions.
func TestNetRouteEqual(t *testing.T) {
	muts := map[string]func(r *NetRoute){
		"NetID":  func(r *NetRoute) { r.NetID++ },
		"Routed": func(r *NetRoute) { r.Routed = !r.Routed },
		"Wires":  func(r *NetRoute) { r.Wires[1].Span.Hi++ },
		"Vias":   func(r *NetRoute) { r.Vias[0].Layer++ },
	}
	for _, f := range fieldNames(NetRoute{}) {
		if muts[f] == nil {
			t.Errorf("no mutation for NetRoute.%s", f)
		}
	}
	if !sampleRoute().Equal(sampleRoute()) {
		t.Fatal("identical routes are not equal")
	}
	check := func(name string, mut func(r *NetRoute)) {
		a, b := sampleRoute(), sampleRoute()
		mut(&b)
		if a.Equal(b) || b.Equal(a) {
			t.Errorf("%s flipped: routes still equal", name)
		}
	}
	for name, mut := range muts {
		check("NetRoute."+name, mut)
	}
	check("len(Wires)", func(r *NetRoute) { r.Wires = r.Wires[:1] })
	check("len(Vias)", func(r *NetRoute) { r.Vias = nil })
	if !(NetRoute{}).Equal(NetRoute{Wires: []geom.Segment{}}) {
		t.Error("nil and empty wire lists differ")
	}
}

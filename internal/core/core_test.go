package core

import (
	"strings"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/drc"
	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/track"
)

func smallCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	spec, err := bench.ByName("S9234")
	if err != nil {
		t.Fatal(err)
	}
	return bench.Generate(spec)
}

func TestStitchAwareEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full routing in -short mode")
	}
	c := smallCircuit(t)
	res, err := Route(c, StitchAware())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Routability() < 90 {
		t.Errorf("routability %.2f%% too low", rep.Routability())
	}
	// Hard constraints: no vertical routing violations, no off-pin vias.
	if rep.VertRouteViolations != 0 {
		t.Errorf("vertical routing violations: %d", rep.VertRouteViolations)
	}
	if rep.ViaViolationsOffPin != 0 {
		t.Errorf("off-pin via violations: %d", rep.ViaViolationsOffPin)
	}
	if rep.Wirelength == 0 {
		t.Error("zero wirelength")
	}
}

func TestStitchAwareBeatsBaselineOnShortPolygons(t *testing.T) {
	if testing.Short() {
		t.Skip("full routing in -short mode")
	}
	c1 := smallCircuit(t)
	base, err := Route(c1, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	c2 := smallCircuit(t)
	ours, err := Route(c2, StitchAware())
	if err != nil {
		t.Fatal(err)
	}
	if base.Report.ShortPolygons == 0 {
		t.Fatal("baseline produced no short polygons; workload too easy to compare")
	}
	if ours.Report.ShortPolygons >= base.Report.ShortPolygons {
		t.Errorf("stitch-aware SP %d not below baseline %d",
			ours.Report.ShortPolygons, base.Report.ShortPolygons)
	}
	// The paper reports a ~97% reduction (Table III comp. 0.023); require
	// at least a strong reduction to catch regressions without being
	// brittle.
	if float64(ours.Report.ShortPolygons) > 0.5*float64(base.Report.ShortPolygons) {
		t.Errorf("SP reduction too weak: %d -> %d", base.Report.ShortPolygons, ours.Report.ShortPolygons)
	}
	// Baseline also satisfies hard constraints (per the paper's setup).
	if base.Report.VertRouteViolations != 0 || base.Report.ViaViolationsOffPin != 0 {
		t.Errorf("baseline hard violations: %+v", base.Report)
	}
}

func TestTinyCircuitAllAlgos(t *testing.T) {
	f := grid.New(90, 90, 3)
	nets := []*netlist.Net{
		{ID: 0, Name: "a", Pins: []netlist.Pin{
			{Point: geom.Point{X: 3, Y: 3}, Layer: 1},
			{Point: geom.Point{X: 70, Y: 50}, Layer: 1},
		}},
		{ID: 1, Name: "b", Pins: []netlist.Pin{
			{Point: geom.Point{X: 20, Y: 70}, Layer: 1},
			{Point: geom.Point{X: 22, Y: 10}, Layer: 1},
			{Point: geom.Point{X: 60, Y: 40}, Layer: 1},
		}},
		{ID: 2, Name: "c", Pins: []netlist.Pin{
			{Point: geom.Point{X: 5, Y: 80}, Layer: 1},
			{Point: geom.Point{X: 80, Y: 80}, Layer: 1},
		}},
	}
	for _, trk := range []track.Algo{track.Conventional, track.GraphBased, track.ILPBased} {
		cfg := StitchAware()
		cfg.TrackAlgo = trk
		c := &netlist.Circuit{Name: "tiny", Fabric: f, Nets: nets}
		res, err := Route(c, cfg)
		if err != nil {
			t.Fatalf("track algo %v: %v", trk, err)
		}
		if res.Report.RoutedNets != 3 {
			t.Errorf("track algo %v: routed %d/3", trk, res.Report.RoutedNets)
		}
		if res.Report.VertRouteViolations != 0 || res.Report.ViaViolationsOffPin != 0 {
			t.Errorf("track algo %v: hard violations %+v", trk, res.Report)
		}
	}
}

func TestInvalidCircuitRejected(t *testing.T) {
	f := grid.New(60, 60, 3)
	c := &netlist.Circuit{Name: "bad", Fabric: f, Nets: []*netlist.Net{
		{ID: 0, Name: "x", Pins: []netlist.Pin{{Point: geom.Point{X: 1, Y: 1}, Layer: 1}}},
	}}
	if _, err := Route(c, StitchAware()); err == nil {
		t.Fatal("1-pin net accepted")
	}
}

func TestRouteDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full routing in -short mode")
	}
	run := func() (float64, int, int64) {
		spec, _ := bench.ByName("S5378")
		c := bench.Generate(spec)
		res, err := Route(c, StitchAware())
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.Routability(), res.Report.ShortPolygons, res.Report.Wirelength
	}
	r1, sp1, wl1 := run()
	r2, sp2, wl2 := run()
	if r1 != r2 || sp1 != sp2 || wl1 != wl2 {
		t.Errorf("nondeterministic: (%.4f,%d,%d) vs (%.4f,%d,%d)", r1, sp1, wl1, r2, sp2, wl2)
	}
}

func TestNoCrossNetShorts(t *testing.T) {
	if testing.Short() {
		t.Skip("full routing in -short mode")
	}
	spec, _ := bench.ByName("S5378")
	c := bench.Generate(spec)
	res, err := Route(c, StitchAware())
	if err != nil {
		t.Fatal(err)
	}
	if n := drc.CheckShorts(res.Routes); n != 0 {
		t.Errorf("%d cross-net shorts", n)
	}
}

func TestRoutesSurviveSerialization(t *testing.T) {
	if testing.Short() {
		t.Skip("full routing in -short mode")
	}
	spec, _ := bench.ByName("S9234")
	c := bench.Generate(spec)
	res, err := Route(c, StitchAware())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := nlio.WriteRoutes(&sb, res.Routes); err != nil {
		t.Fatal(err)
	}
	back, err := nlio.ReadRoutes(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	rep1 := res.Report
	rep2 := drc.Check(c, back)
	if rep1.ShortPolygons != rep2.ShortPolygons ||
		rep1.ViaViolations != rep2.ViaViolations ||
		rep1.Wirelength != rep2.Wirelength ||
		rep1.RoutedNets != rep2.RoutedNets {
		t.Errorf("DRC differs after round trip: %+v vs %+v", rep1, rep2)
	}
}

func TestNonDefaultStitchParameters(t *testing.T) {
	// The whole flow must respect non-default stitch pitch / SUR width.
	f := grid.New(80, 80, 3)
	f.StitchPitch = 10
	f.SUREps = 2
	f.EscapeWidth = 3
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	var nets []*netlist.Net
	for i := 0; i < 10; i++ {
		nets = append(nets, &netlist.Net{ID: i, Name: "n", Pins: []netlist.Pin{
			pin(3+7*i%70, 5+3*i), pin(70-6*i%65, 70-2*i),
		}})
	}
	c := &netlist.Circuit{Name: "alt", Fabric: f, Nets: nets}
	res, err := Route(c, StitchAware())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Routability() < 90 {
		t.Errorf("routability %.2f%% on alternate fabric", res.Report.Routability())
	}
	if res.Report.VertRouteViolations != 0 || res.Report.ViaViolationsOffPin != 0 {
		t.Errorf("hard violations on alternate fabric: %+v", res.Report)
	}
}

package core_test

import (
	"testing"
	"time"

	"stitchroute/internal/core"
	"stitchroute/internal/eco"
	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
)

// TestStageTimesPopulated: every pipeline that runs a stage times it. A
// cold route and a replay run the global, detail and DRC stages; a
// patch carries its global plans over from the parent, so it times
// detail and DRC only.
func TestStageTimesPopulated(t *testing.T) {
	pin := func(x, y int) netlist.Pin { return netlist.Pin{Point: geom.Point{X: x, Y: y}, Layer: 1} }
	c := &netlist.Circuit{Name: "t", Fabric: grid.New(60, 60, 3), Nets: []*netlist.Net{
		{ID: 0, Name: "a", Pins: []netlist.Pin{pin(2, 2), pin(50, 50)}},
		{ID: 1, Name: "b", Pins: []netlist.Pin{pin(5, 40), pin(40, 5)}},
	}}
	cfg := core.StitchAware()
	cold, err := core.Route(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := &eco.Script{Edits: []eco.Edit{{Op: eco.OpMovePin, ID: 0, Pin: 0, X: 10, Y: 12, Layer: 1}}}
	replay, err := eco.Reroute(cold, c, script, cfg)
	if err != nil {
		t.Fatal(err)
	}
	patch, err := eco.ReroutePatch(cold, c, script, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name   string
		res    *core.Result
		global bool
	}{
		{"cold", cold, true},
		{"replay", replay.Result, true},
		{"patch", patch.Result, false},
	} {
		ts := run.res.Times
		if run.global && ts.Global <= 0 {
			t.Errorf("%s: global stage not timed", run.name)
		}
		if ts.Detail <= 0 || ts.DRC <= 0 {
			t.Errorf("%s: detail %v, drc %v; want both timed", run.name, ts.Detail, ts.DRC)
		}
		var sum time.Duration
		for _, st := range ts.Stages() {
			sum += st.Time
		}
		if sum != ts.Total() {
			t.Errorf("%s: stages sum to %v, Total is %v", run.name, sum, ts.Total())
		}
	}
	if replay.Stats.Fallback || patch.Stats.Fallback {
		t.Errorf("fallback: replay %v, patch %v; want both incremental", replay.Stats.Fallback, patch.Stats.Fallback)
	}
}

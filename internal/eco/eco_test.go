package eco_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"stitchroute/internal/core"
	"stitchroute/internal/detail"
	"stitchroute/internal/eco"
	"stitchroute/internal/harness"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/plan"
)

func genCircuit(t *testing.T, seed int64) *netlist.Circuit {
	t.Helper()
	return harness.Generate(harness.GenSpec{
		XTracks: 90, YTracks: 60, Layers: 3, Nets: 40, Spread: 8, Seed: seed,
	})
}

// freshPins returns two in-bounds pin locations no existing net uses.
func freshPins(c *netlist.Circuit) []eco.Pin {
	used := map[[2]int]bool{}
	for _, n := range c.Nets {
		for _, p := range n.Pins {
			used[[2]int{p.X, p.Y}] = true
		}
	}
	var out []eco.Pin
	for x := 1; x < c.Fabric.XTracks-1 && len(out) < 2; x += 7 {
		for y := 1; y < c.Fabric.YTracks-1 && len(out) < 2; y += 5 {
			if !used[[2]int{x, y}] {
				used[[2]int{x, y}] = true
				out = append(out, eco.Pin{X: x, Y: y, Layer: 1})
			}
		}
	}
	return out
}

// assertEqualToCold routes the edited circuit cold and requires the ECO
// result to match byte-for-byte.
func assertEqualToCold(t *testing.T, er *eco.Result, cfg core.Config) {
	t.Helper()
	cold, err := core.Route(er.Edited, cfg)
	if err != nil {
		t.Fatalf("cold route: %v", err)
	}
	eh, err := nlio.RoutesHash(er.Routes)
	if err != nil {
		t.Fatalf("eco hash: %v", err)
	}
	ch, err := nlio.RoutesHash(cold.Routes)
	if err != nil {
		t.Fatalf("cold hash: %v", err)
	}
	if eh != ch {
		t.Fatalf("ECO routes differ from cold reroute (eco %s, cold %s)", eh, ch)
	}
	if !reflect.DeepEqual(er.Report, cold.Report) {
		t.Errorf("DRC reports differ: eco %+v cold %+v", er.Report, cold.Report)
	}
	for i := range cold.Plans {
		if !er.Plans[i].Equal(cold.Plans[i]) {
			t.Fatalf("plan %d differs from cold reroute", i)
		}
	}
	if er.RippedNets != cold.RippedNets || er.FailedNets != cold.FailedNets {
		t.Errorf("rip/fail counts differ: eco %d/%d cold %d/%d",
			er.RippedNets, er.FailedNets, cold.RippedNets, cold.FailedNets)
	}
}

func TestRerouteEquivalence(t *testing.T) {
	cfg := core.StitchAware()
	c := genCircuit(t, 7)
	parent, err := core.Route(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if parent.ECO == nil {
		t.Fatal("cold route did not attach an ECO recording")
	}
	np := freshPins(c)

	cases := []struct {
		name   string
		script eco.Script
	}{
		{"empty", eco.Script{}},
		{"movepin", eco.Script{Edits: []eco.Edit{
			{Op: eco.OpMovePin, ID: 3, Pin: 0, X: np[0].X, Y: np[0].Y},
		}}},
		{"delete", eco.Script{Edits: []eco.Edit{{Op: eco.OpDelete, ID: 11}}}},
		{"add", eco.Script{Edits: []eco.Edit{
			{Op: eco.OpAdd, ID: 4000, Pins: np},
		}}},
		{"move", eco.Script{Edits: []eco.Edit{
			{Op: eco.OpMove, ID: 5, Pins: np},
		}}},
		{"delete-readd", eco.Script{Edits: []eco.Edit{
			{Op: eco.OpDelete, ID: 8},
			{Op: eco.OpAdd, ID: 8, Pins: np},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			er, err := eco.Reroute(parent, c, &tc.script, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if er.Stats.Fallback {
				t.Fatal("unexpected fallback to cold route")
			}
			assertEqualToCold(t, er, cfg)
			if len(tc.script.Edits) <= 1 && er.Stats.DetailReused == 0 && len(c.Nets) > 10 {
				t.Errorf("no detail reuse on a %d-net circuit: %+v", len(c.Nets), er.Stats)
			}
		})
	}
}

// TestRerouteChains applies two scripts in sequence: the second reroute
// uses the first's result as its parent, exercising the re-recorded ECO
// state.
func TestRerouteChains(t *testing.T) {
	cfg := core.StitchAware()
	c := genCircuit(t, 12)
	parent, err := core.Route(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	np := freshPins(c)
	s1 := &eco.Script{Edits: []eco.Edit{{Op: eco.OpMovePin, ID: 2, Pin: 0, X: np[0].X, Y: np[0].Y}}}
	r1, err := eco.Reroute(parent, c, s1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ECO == nil {
		t.Fatal("ECO result did not re-record")
	}
	s2 := &eco.Script{Edits: []eco.Edit{{Op: eco.OpDelete, ID: 17}}}
	r2, err := eco.Reroute(r1.Result, r1.Edited, s2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Fallback {
		t.Fatal("chained reroute fell back")
	}
	assertEqualToCold(t, r2, cfg)
}

// TestRerouteDeterminism: the same reroute twice is byte-identical.
func TestRerouteDeterminism(t *testing.T) {
	cfg := core.StitchAware()
	c := genCircuit(t, 3)
	parent, err := core.Route(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &eco.Script{Edits: []eco.Edit{{Op: eco.OpDelete, ID: 6}}}
	var hashes [2]string
	for i := range hashes {
		er, err := eco.Reroute(parent, c, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := nlio.RoutesHash(er.Routes)
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("ECO reroute is nondeterministic: %s vs %s", hashes[0], hashes[1])
	}
}

// TestRerouteFallback: a parent without a recording still reroutes,
// reporting Fallback.
func TestRerouteFallback(t *testing.T) {
	cfg := core.StitchAware()
	c := genCircuit(t, 5)
	parent, err := core.Route(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripped := *parent
	stripped.ECO = nil
	s := &eco.Script{Edits: []eco.Edit{{Op: eco.OpDelete, ID: 1}}}
	er, err := eco.Reroute(&stripped, c, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !er.Stats.Fallback {
		t.Fatal("expected fallback without a recording")
	}
	assertEqualToCold(t, er, cfg)
}

func TestApplyValidation(t *testing.T) {
	c := genCircuit(t, 1)
	n1 := c.Nets[1]
	p0 := n1.Pins[0]
	cases := []struct {
		name string
		e    eco.Edit
		want string
	}{
		{"unknown-op", eco.Edit{Op: "rename", ID: 1}, "unknown op"},
		{"add-existing", eco.Edit{Op: eco.OpAdd, ID: 1, Pins: []eco.Pin{{X: 1, Y: 1, Layer: 1}, {X: 2, Y: 2, Layer: 1}}}, "already exists"},
		{"add-one-pin", eco.Edit{Op: eco.OpAdd, ID: 999, Pins: []eco.Pin{{X: 1, Y: 1, Layer: 1}}}, "at least 2 pins"},
		{"add-out-of-fabric", eco.Edit{Op: eco.OpAdd, ID: 999, Pins: []eco.Pin{{X: -1, Y: 1, Layer: 1}, {X: 2, Y: 2, Layer: 1}}}, "outside"},
		{"add-bad-layer", eco.Edit{Op: eco.OpAdd, ID: 999, Pins: []eco.Pin{{X: 1, Y: 1, Layer: 9}, {X: 2, Y: 2, Layer: 1}}}, "layer"},
		{"delete-missing", eco.Edit{Op: eco.OpDelete, ID: 999}, "not found"},
		{"move-missing", eco.Edit{Op: eco.OpMove, ID: 999, Pins: []eco.Pin{{X: 1, Y: 1, Layer: 1}, {X: 2, Y: 2, Layer: 1}}}, "not found"},
		{"movepin-bad-index", eco.Edit{Op: eco.OpMovePin, ID: 1, Pin: 99, X: 1, Y: 1}, "pin index"},
		{"movepin-out-of-fabric", eco.Edit{Op: eco.OpMovePin, ID: 1, Pin: 0, X: 1000, Y: 1}, "outside"},
		{"add-coincident-pins", eco.Edit{Op: eco.OpAdd, ID: 999, Pins: []eco.Pin{{X: 1, Y: 1, Layer: 1}, {X: 1, Y: 1, Layer: 1}}}, "both at (1,1)"},
		{"move-coincident-pins", eco.Edit{Op: eco.OpMove, ID: 1, Pins: []eco.Pin{{X: 2, Y: 3, Layer: 1}, {X: 4, Y: 4, Layer: 2}, {X: 2, Y: 3, Layer: 1}}}, "pins 0 and 2"},
		{"movepin-onto-pin", eco.Edit{Op: eco.OpMovePin, ID: n1.ID, Pin: 1, X: p0.X, Y: p0.Y, Layer: p0.Layer}, "is pin 0's cell"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &eco.Script{Edits: []eco.Edit{tc.e}}
			err := s.Validate(c)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
	if err := (&eco.Script{}).Validate(c); err != nil {
		t.Fatalf("empty script should validate: %v", err)
	}
}

func TestParseScript(t *testing.T) {
	s, err := eco.ParseScript(strings.NewReader(
		`{"edits":[{"op":"add","id":99,"name":"n99","pins":[{"x":1,"y":2,"layer":1},{"x":4,"y":5,"layer":1}]},{"op":"delete","id":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Edits) != 2 || s.Edits[0].Op != eco.OpAdd || s.Edits[0].Pins[1].Y != 5 || s.Edits[1].ID != 3 {
		t.Fatalf("bad parse: %+v", s)
	}
	if _, err := eco.ParseScript(strings.NewReader(`{"edit":[]}`)); err == nil {
		t.Fatal("unknown field should fail")
	}
}

// TestRerouteCancelled: a pre-cancelled context aborts both ECO engines
// with ErrCancelled.
func TestRerouteCancelled(t *testing.T) {
	cfg := core.StitchAware()
	c := genCircuit(t, 9)
	parent, err := core.Route(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &eco.Script{Edits: []eco.Edit{{Op: eco.OpDelete, ID: 1}}}
	for _, tc := range []struct {
		name   string
		engine func(context.Context, *core.Result, *netlist.Circuit, *eco.Script, core.Config) (*eco.Result, error)
	}{
		{"replay", eco.RerouteContext},
		{"patch", eco.ReroutePatchContext},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.engine(ctx, parent, c, s, cfg); !errors.Is(err, core.ErrCancelled) {
				t.Fatalf("want ErrCancelled, got %v", err)
			}
		})
	}
}

// TestPatchLeavesParentUnchanged: patches share the parent's kept routes
// and freed-pin records instead of copying them, so two patches from
// one parent, and a patch chained off the first, must leave every
// parent's routes and freed pins exactly as they were.
func TestPatchLeavesParentUnchanged(t *testing.T) {
	cfg := core.StitchAware()
	c := genCircuit(t, 21)
	parent, err := core.Route(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	routes, freed := cloneRoutes(parent.Routes), cloneCells(parent.ECO.FreedPins)

	np := freshPins(c)
	s1 := &eco.Script{Edits: []eco.Edit{{Op: eco.OpMovePin, ID: 4, Pin: 0, X: np[0].X, Y: np[0].Y}}}
	s2 := &eco.Script{Edits: []eco.Edit{{Op: eco.OpDelete, ID: 9}, {Op: eco.OpAdd, ID: 900, Pins: np}}}
	p1, err := eco.ReroutePatch(parent, c, s1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Stats.DetailReused == 0 {
		t.Fatal("patch grafted no nets")
	}
	p1Routes, p1Freed := cloneRoutes(p1.Routes), cloneCells(p1.ECO.FreedPins)
	if _, err := eco.ReroutePatch(parent, c, s2, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := eco.ReroutePatch(p1.Result, p1.Edited, s2, cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parent.Routes, routes) || !reflect.DeepEqual(parent.ECO.FreedPins, freed) {
		t.Error("patching changed the parent's routes or freed pins")
	}
	if !reflect.DeepEqual(p1.Routes, p1Routes) || !reflect.DeepEqual(p1.ECO.FreedPins, p1Freed) {
		t.Error("a chained patch changed its parent patch's routes or freed pins")
	}
}

func cloneRoutes(rs []plan.NetRoute) []plan.NetRoute {
	out := slices.Clone(rs)
	for i := range out {
		out[i].Wires = slices.Clone(out[i].Wires)
		out[i].Vias = slices.Clone(out[i].Vias)
	}
	return out
}

func cloneCells(cs [][]detail.Cell) [][]detail.Cell {
	out := slices.Clone(cs)
	for i := range out {
		out[i] = slices.Clone(out[i])
	}
	return out
}

// TestPatchReport holds each patch's DRC report, which updates the
// parent's (drc.Update), to a full check of the patched routes: for an
// empty script, a deleted net with short polygons, an added net, a pin
// move, and a patch of that patch. The baseline router leaves short
// polygons on this circuit; the stitch-aware one leaves none.
func TestPatchReport(t *testing.T) {
	cfg := core.Baseline()
	c := genCircuit(t, 21)
	parent, err := core.Route(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(parent.SPSlots) == 0 {
		t.Fatal("parent has no short polygons to delete")
	}
	spNet := c.Nets[parent.SPSlots[0]].ID
	np := freshPins(c)
	check := func(name string, er *eco.Result) {
		t.Helper()
		if er.Stats.Fallback {
			t.Fatalf("%s: patch fell back to a cold route", name)
		}
		if err := harness.CheckReport(er.Edited, er.Result); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, tc := range []struct {
		name string
		s    *eco.Script
	}{
		{"empty", &eco.Script{}},
		{"delete-sp-net", &eco.Script{Edits: []eco.Edit{{Op: eco.OpDelete, ID: spNet}}}},
		{"add", &eco.Script{Edits: []eco.Edit{{Op: eco.OpAdd, ID: 900, Pins: np}}}},
	} {
		er, err := eco.ReroutePatch(parent, c, tc.s, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		check(tc.name, er)
	}

	move := &eco.Script{Edits: []eco.Edit{{Op: eco.OpMovePin, ID: 4, Pin: 0, X: np[0].X, Y: np[0].Y}}}
	p1, err := eco.ReroutePatch(parent, c, move, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("move", p1)
	again := &eco.Script{Edits: []eco.Edit{{Op: eco.OpDelete, ID: spNet}, {Op: eco.OpAdd, ID: 901, Pins: np[1:]}}}
	again.Edits[1].Pins = append(again.Edits[1].Pins, eco.Pin{X: np[1].X + 3, Y: np[1].Y, Layer: 1})
	p2, err := eco.ReroutePatch(p1.Result, p1.Edited, again, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("patch-of-patch", p2)
}

// TestPatchMarginClamped: a margin past the fabric's extent covers the
// whole fabric, so math.MaxInt must rip up the same nets as
// XTracks+YTracks instead of overflowing the inflated region into an
// empty one that rips up nothing but the edited net.
func TestPatchMarginClamped(t *testing.T) {
	cfg := core.StitchAware()
	c := genCircuit(t, 21)
	parent, err := core.Route(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	np := freshPins(c)
	patch := func(margin int) *eco.Result {
		t.Helper()
		s := &eco.Script{Margin: margin, Edits: []eco.Edit{{Op: eco.OpMovePin, ID: 4, Pin: 0, X: np[0].X, Y: np[0].Y}}}
		er, err := eco.ReroutePatch(parent, c, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return er
	}
	whole := patch(c.Fabric.XTracks + c.Fabric.YTracks)
	huge := patch(math.MaxInt)
	if whole.Stats != huge.Stats {
		t.Fatalf("margin MaxInt: %+v, margin XTracks+YTracks: %+v", huge.Stats, whole.Stats)
	}
	if whole.Stats.DetailRouted < 2 {
		t.Fatalf("a whole-fabric margin rerouted %d nets", whole.Stats.DetailRouted)
	}
	if !reflect.DeepEqual(whole.Routes, huge.Routes) {
		t.Fatal("margins MaxInt and XTracks+YTracks give different routes")
	}
}

package mlevel

import (
	"slices"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

func mkCircuit() *netlist.Circuit {
	f := grid.New(120, 120, 3) // 8x8 tiles -> 4 levels (1,2,4,8)
	pin := func(x, y int) netlist.Pin {
		return netlist.Pin{Point: geom.Point{X: x, Y: y}, Layer: 1}
	}
	return &netlist.Circuit{Name: "t", Fabric: f, Nets: []*netlist.Net{
		{ID: 0, Name: "global", Pins: []netlist.Pin{pin(1, 1), pin(115, 115)}},
		{ID: 1, Name: "local", Pins: []netlist.Pin{pin(2, 2), pin(9, 9)}},
		{ID: 2, Name: "mid", Pins: []netlist.Pin{pin(2, 2), pin(40, 9)}},
	}}
}

func TestScheduleOrder(t *testing.T) {
	c := mkCircuit()
	slots := Schedule(c)
	if id := c.Nets[slots[0]].ID; id != 1 {
		t.Errorf("first net = %d, want the local net", id)
	}
	if id := c.Nets[slots[len(slots)-1]].ID; id != 0 {
		t.Errorf("last net = %d, want the global net", id)
	}
	level := func(s int) int { return plan.Level(c.Nets[s].BBox(), c.Fabric) }
	for i := 1; i < len(slots); i++ {
		if level(slots[i]) < level(slots[i-1]) {
			t.Error("levels not ascending")
		}
	}
}

func TestLevels(t *testing.T) {
	c := mkCircuit() // 8 tiles -> levels 0..3 -> 4
	if got := Levels(c); got != 4 {
		t.Errorf("Levels = %d, want 4", got)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram(mkCircuit())
	total := 0
	for _, n := range h {
		total += n
	}
	if total != 3 {
		t.Errorf("histogram covers %d nets, want 3", total)
	}
	if h[0] != 1 {
		t.Errorf("level-0 count = %d, want 1", h[0])
	}
}

func TestBenchmarkHistogramShape(t *testing.T) {
	spec, _ := bench.ByName("S9234")
	c := bench.Generate(spec)
	h := Histogram(c)
	if h[0] == 0 {
		t.Error("no level-0 local nets; the multilevel order is pointless")
	}
	// Rent-style locality: most nets are local within the first two
	// levels (fit a 2x2-tile block).
	total := 0
	for _, n := range h {
		total += n
	}
	if len(h) < 2 || 2*(h[0]+h[1]) < total {
		t.Errorf("local nets are not the majority: %v", h)
	}
}

func TestScheduleStableAcrossCalls(t *testing.T) {
	c := mkCircuit()
	if a, b := Schedule(c), Schedule(c); !slices.Equal(a, b) {
		t.Fatalf("schedule not deterministic: %v then %v", a, b)
	}
}

func TestLevelsOfSingleTileDie(t *testing.T) {
	f := grid.New(30, 30, 1) // 2x2 tiles
	c := &netlist.Circuit{Name: "t", Fabric: f}
	if got := Levels(c); got != 2 {
		t.Errorf("Levels = %d, want 2", got)
	}
}

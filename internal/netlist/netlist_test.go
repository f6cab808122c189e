package netlist

import (
	"testing"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
)

func circuit() *Circuit {
	f := grid.New(60, 45, 3)
	return &Circuit{
		Name:   "t",
		Fabric: f,
		Nets: []*Net{
			{ID: 0, Name: "a", Pins: []Pin{
				{Point: geom.Point{X: 2, Y: 3}, Layer: 1},
				{Point: geom.Point{X: 20, Y: 8}, Layer: 1},
			}},
			{ID: 1, Name: "b", Pins: []Pin{
				{Point: geom.Point{X: 15, Y: 3}, Layer: 1}, // on stitch col
				{Point: geom.Point{X: 16, Y: 40}, Layer: 1},
				{Point: geom.Point{X: 59, Y: 44}, Layer: 1},
			}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := circuit().Validate(); err != nil {
		t.Fatalf("valid circuit rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	c := circuit()
	c.Nets[0].Pins = c.Nets[0].Pins[:1]
	if err := c.Validate(); err == nil {
		t.Error("1-pin net accepted")
	}

	c = circuit()
	c.Nets[1].Pins[0].X = 999
	if err := c.Validate(); err == nil {
		t.Error("out-of-bounds pin accepted")
	}

	c = circuit()
	c.Nets[1].Pins[0].Layer = 9
	if err := c.Validate(); err == nil {
		t.Error("bad layer accepted")
	}

	c = circuit()
	c.Nets[1].ID = 0
	if err := c.Validate(); err == nil {
		t.Error("duplicate net ID accepted")
	}

	c = circuit()
	c.Nets[0] = nil
	if err := c.Validate(); err == nil {
		t.Error("nil net accepted")
	}
}

func TestBBoxHPWL(t *testing.T) {
	c := circuit()
	b := c.Nets[1].BBox()
	if b != (geom.Rect{X0: 15, Y0: 3, X1: 59, Y1: 44}) {
		t.Fatalf("BBox = %+v", b)
	}
	if got := c.Nets[1].HPWL(); got != 44+41 {
		t.Errorf("HPWL = %d, want 85", got)
	}
}

// TestBBoxHPWLAllocs pins BBox and HPWL at zero allocations: HPWL runs
// inside the routers' net-ordering sort comparators.
func TestBBoxHPWLAllocs(t *testing.T) {
	n := circuit().Nets[1]
	var sink int
	if avg := testing.AllocsPerRun(100, func() { sink += n.BBox().X1 + n.HPWL() }); avg != 0 {
		t.Errorf("BBox+HPWL: %.2f allocs/run, want 0", avg)
	}
}

// TestBBoxEmptyPanics keeps the empty-net contract: a net without pins
// has no bounding box.
func TestBBoxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BBox of a pinless net did not panic")
		}
	}()
	(&Net{}).BBox()
}

func TestNumPins(t *testing.T) {
	if got := circuit().NumPins(); got != 5 {
		t.Errorf("NumPins = %d, want 5", got)
	}
}

func TestPinViaViolations(t *testing.T) {
	// Only pin at x=15 sits on a stitching column.
	if got := circuit().PinViaViolations(); got != 1 {
		t.Errorf("PinViaViolations = %d, want 1", got)
	}
}

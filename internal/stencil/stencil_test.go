package stencil

import (
	"context"
	"testing"

	"stitchroute/internal/fracture"
	"stitchroute/internal/geom"
	"stitchroute/internal/plan"
)

// repeatedLayout fractures a layout with n copies of the same L-corner
// pattern spaced far apart, so each copy is its own aperture cluster.
func repeatedLayout(t *testing.T, n int) []fracture.Shot {
	t.Helper()
	var wires []geom.Segment
	for i := 0; i < n; i++ {
		x := i * 100
		wires = append(wires,
			geom.HSeg(1, 0, x, x+9),
			geom.VSeg(1, x, 0, 9),
		)
	}
	routes := []plan.NetRoute{{NetID: 1, Routed: true, Wires: wires}}
	return fracture.Fracture(routes, 1, fracture.ModeLShape, fracture.Options{}).Shots
}

func TestRepeatedPatternBecomesCharacter(t *testing.T) {
	shots := repeatedLayout(t, 5)
	p := Build(shots, Options{})
	if p.Candidates != 1 {
		t.Fatalf("candidates = %d, want 1 (one repeated pattern)", p.Candidates)
	}
	if len(p.Placements) != 1 {
		t.Fatalf("placements = %d, want 1", len(p.Placements))
	}
	ch := p.Placements[0].Char
	if ch.Count != 5 || ch.Flashes != 2 {
		t.Fatalf("character = %+v, want count 5, flashes 2", ch)
	}
	// 5 L shots: VSB = 5×2×TVSB = 10; CP = 5×TCP = 7.5 → saving 2.5.
	if p.VSBTime != 10 || p.Saving != 2.5 {
		t.Fatalf("VSBTime=%v Saving=%v, want 10 and 2.5", p.VSBTime, p.Saving)
	}
	if p.CPFlashes != 5 {
		t.Fatalf("CPFlashes = %d, want 5", p.CPFlashes)
	}
	if !p.SelectionOptimal {
		t.Error("tiny selection not proven optimal")
	}
	if p.Reduction() <= 0 {
		t.Errorf("reduction = %v, want > 0", p.Reduction())
	}
}

func TestUniquePatternNotPromoted(t *testing.T) {
	shots := repeatedLayout(t, 1)
	p := Build(shots, Options{})
	if p.Candidates != 0 || len(p.Placements) != 0 {
		t.Fatalf("unique pattern promoted: %+v", p)
	}
	if p.Saving != 0 || p.CPTime != p.VSBTime {
		t.Fatalf("unique pattern changed write time: %+v", p)
	}
}

// TestUnprofitablePatternSkipped: a repeated single-rectangle pattern
// costs 1 VSB flash but tCP > tVSB, so promoting it would slow the write.
func TestUnprofitablePatternSkipped(t *testing.T) {
	var wires []geom.Segment
	for i := 0; i < 4; i++ {
		wires = append(wires, geom.HSeg(1, 0, i*100, i*100+9))
	}
	routes := []plan.NetRoute{{NetID: 1, Routed: true, Wires: wires}}
	shots := fracture.Fracture(routes, 1, fracture.ModeRect, fracture.Options{}).Shots
	p := Build(shots, Options{})
	if p.Candidates != 0 {
		t.Fatalf("unprofitable pattern kept as candidate: %+v", p)
	}
}

// TestCapacitySelection: with a plate that fits only one character, the
// selection must keep the higher-saving pattern.
func TestCapacitySelection(t *testing.T) {
	var wires []geom.Segment
	// Pattern A: L-corner, 3 copies (saving 3×(2−1.5) = 1.5).
	for i := 0; i < 3; i++ {
		x := i * 100
		wires = append(wires, geom.HSeg(1, 0, x, x+9), geom.VSeg(1, x, 0, 9))
	}
	// Pattern B: taller L-corner, 8 copies (saving 8×(2−1.5) = 4).
	for i := 0; i < 8; i++ {
		x := 1000 + i*100
		wires = append(wires, geom.HSeg(1, 0, x, x+14), geom.VSeg(1, x, 0, 14))
	}
	routes := []plan.NetRoute{{NetID: 1, Routed: true, Wires: wires}}
	shots := fracture.Fracture(routes, 1, fracture.ModeLShape, fracture.Options{}).Shots
	// Plate sized so one 15×15 character (+halo) fits but not both
	// characters together.
	p, err := build(context.Background(), shots, plate{w: 20, h: 20})
	if err != nil {
		t.Fatal(err)
	}
	if p.Candidates != 2 {
		t.Fatalf("candidates = %d, want 2", p.Candidates)
	}
	if len(p.Placements) != 1 {
		t.Fatalf("placements = %d, want 1 (capacity for one)", len(p.Placements))
	}
	if got := p.Placements[0].Char.Count; got != 8 {
		t.Fatalf("selected the count-%d pattern, want the count-8 one", got)
	}
	if p.Saving != 4 {
		t.Fatalf("saving = %v, want 4", p.Saving)
	}
}

// TestPackingRespectsPlate: many characters pack within bounds, halos
// are honored between pattern boxes, and no two placements overlap.
func TestPackingRespectsPlate(t *testing.T) {
	var wires []geom.Segment
	// 6 distinct repeated patterns of varying height.
	for k := 0; k < 6; k++ {
		for i := 0; i < 2; i++ {
			x := k*1000 + i*100
			wires = append(wires, geom.HSeg(1, 0, x, x+9), geom.VSeg(1, x, 0, 5+2*k))
		}
	}
	routes := []plan.NetRoute{{NetID: 1, Routed: true, Wires: wires}}
	shots := fracture.Fracture(routes, 1, fracture.ModeLShape, fracture.Options{}).Shots
	pl := plate{w: 30, h: 60}
	p, err := build(context.Background(), shots, pl)
	if err != nil {
		t.Fatal(err)
	}
	if p.Selected == 0 {
		t.Fatal("nothing selected")
	}
	if p.Selected != len(p.Placements)+p.Dropped {
		t.Fatalf("selected %d != placed %d + dropped %d", p.Selected, len(p.Placements), p.Dropped)
	}
	for i, c := range p.Placements {
		if c.X < halo || c.Y < halo ||
			c.X+c.Char.W+halo > pl.w ||
			c.Y+c.Char.H+halo > pl.h {
			t.Fatalf("placement %d out of plate: %+v", i, c)
		}
		a := geom.Rect{X0: c.X, Y0: c.Y, X1: c.X + c.Char.W - 1, Y1: c.Y + c.Char.H - 1}
		for j := i + 1; j < len(p.Placements); j++ {
			o := p.Placements[j]
			b := geom.Rect{X0: o.X, Y0: o.Y, X1: o.X + o.Char.W - 1, Y1: o.Y + o.Char.H - 1}
			if a.Overlaps(b) {
				t.Fatalf("placements %d and %d overlap: %+v vs %+v", i, j, c, o)
			}
		}
	}
	if p.SharedBlank <= 0 {
		t.Errorf("overlapping-aware packing recovered no blank area")
	}
}

func TestPlanDeterministic(t *testing.T) {
	shots := repeatedLayout(t, 6)
	h1, err := PlanHash(Build(shots, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := PlanHash(Build(shots, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("plan hash unstable: %s vs %s", h1[:12], h2[:12])
	}
}

func TestBuildContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(ctx, repeatedLayout(t, 3), Options{}); err == nil {
		t.Fatal("cancelled build returned nil error")
	}
}

func TestEmptyShots(t *testing.T) {
	p := Build(nil, Options{})
	if p.Clusters != 0 || p.Candidates != 0 || p.VSBTime != 0 || p.Saving != 0 {
		t.Fatalf("empty input produced %+v", p)
	}
}

package bench

import (
	"testing"

	"stitchroute/internal/nlio"
)

func TestSpecsMatchPaperTables(t *testing.T) {
	mcnc := MCNC()
	if len(mcnc) != 9 {
		t.Fatalf("MCNC has %d circuits, want 9", len(mcnc))
	}
	faraday := Faraday()
	if len(faraday) != 5 {
		t.Fatalf("Faraday has %d circuits, want 5", len(faraday))
	}
	// Spot-check key rows of Tables I and II.
	checks := map[string]struct{ layers, nets, pins int }{
		"Struct": {3, 1920, 5471},
		"S38417": {3, 11309, 32344},
		"S38584": {3, 14754, 42931},
		"DMA":    {6, 13256, 73982},
		"RISC1":  {6, 34034, 196677},
	}
	for name, want := range checks {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if s.Layers != want.layers || s.Nets != want.nets || s.Pins != want.pins {
			t.Errorf("%s: got %d/%d/%d, want %d/%d/%d",
				name, s.Layers, s.Nets, s.Pins, want.layers, want.nets, want.pins)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName of unknown circuit succeeded")
	}
}

func TestGenerateExactCounts(t *testing.T) {
	for _, s := range []string{"Primary1", "S5378"} {
		spec, _ := ByName(s)
		c := Generate(spec)
		if len(c.Nets) != spec.Nets {
			t.Errorf("%s: %d nets, want %d", s, len(c.Nets), spec.Nets)
		}
		if got := c.NumPins(); got != spec.Pins {
			t.Errorf("%s: %d pins, want %d", s, got, spec.Pins)
		}
		if c.Fabric.Layers != spec.Layers {
			t.Errorf("%s: %d layers, want %d", s, c.Fabric.Layers, spec.Layers)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: generated circuit invalid: %v", s, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := ByName("S9234")
	a := Generate(spec)
	b := Generate(spec)
	if len(a.Nets) != len(b.Nets) {
		t.Fatal("net counts differ between runs")
	}
	for i := range a.Nets {
		if len(a.Nets[i].Pins) != len(b.Nets[i].Pins) {
			t.Fatalf("net %d pin counts differ", i)
		}
		for j := range a.Nets[i].Pins {
			if a.Nets[i].Pins[j] != b.Nets[i].Pins[j] {
				t.Fatalf("net %d pin %d differs: %v vs %v", i, j, a.Nets[i].Pins[j], b.Nets[i].Pins[j])
			}
		}
	}
}

func TestGridSizeAlignedToStitchPitch(t *testing.T) {
	for _, s := range All() {
		x, y := s.GridSize()
		if x%15 != 0 || y%15 != 0 {
			t.Errorf("%s: grid %dx%d not stitch-pitch aligned", s.Name, x, y)
		}
		if x < 30 || y < 30 {
			t.Errorf("%s: grid %dx%d too small", s.Name, x, y)
		}
	}
}

func TestAspectFollowsPaper(t *testing.T) {
	s, _ := ByName("Primary2") // 10438x6488 -> aspect ~1.61
	x, y := s.GridSize()
	got := float64(x) / float64(y)
	if got < 1.2 || got > 2.1 {
		t.Errorf("Primary2 grid aspect %.2f far from paper's %.2f", got, s.Aspect())
	}
	sq, _ := ByName("DMA") // square die
	x, y = sq.GridSize()
	if x != y {
		t.Errorf("DMA grid %dx%d not square", x, y)
	}
}

func TestNetLocalityMix(t *testing.T) {
	spec, _ := ByName("S13207")
	c := Generate(spec)
	local, global := 0, 0
	for _, n := range c.Nets {
		if n.HPWL() <= 2*c.Fabric.StitchPitch {
			local++
		} else if n.HPWL() > 6*c.Fabric.StitchPitch {
			global++
		}
	}
	if local == 0 {
		t.Error("no local nets generated; multilevel routing needs them")
	}
	if global == 0 {
		t.Error("no global nets generated")
	}
	// Most nets should be reasonably local (Rent-style distribution).
	if local < len(c.Nets)/4 {
		t.Errorf("only %d/%d local nets", local, len(c.Nets))
	}
}

func TestDegreesSumAndFloor(t *testing.T) {
	for _, name := range []string{"DMA", "Struct"} {
		spec, _ := ByName(name)
		c := Generate(spec)
		for _, n := range c.Nets {
			if len(n.Pins) < 2 {
				t.Fatalf("%s net %s has %d pins", name, n.Name, len(n.Pins))
			}
			if len(n.Pins) > 24 {
				t.Fatalf("%s net %s has %d pins (cap 24)", name, n.Name, len(n.Pins))
			}
		}
	}
}

// TestMeasure checks the shape of a generated S9234 netlist: exact net
// and pin counts, degrees in range, some but not all nets local to one
// tile, and a plausible pin density.
func TestMeasure(t *testing.T) {
	spec, _ := ByName("S9234")
	c := Generate(spec)
	pins, minDeg, maxDeg, local := 0, 1<<30, 0, 0
	for _, n := range c.Nets {
		d := len(n.Pins)
		pins += d
		minDeg, maxDeg = min(minDeg, d), max(maxDeg, d)
		b := n.BBox()
		if c.Fabric.TileOfX(b.X0) == c.Fabric.TileOfX(b.X1) &&
			c.Fabric.TileOfY(b.Y0) == c.Fabric.TileOfY(b.Y1) {
			local++
		}
	}
	if len(c.Nets) != spec.Nets || pins != spec.Pins {
		t.Fatalf("counts: %d/%d, want %d/%d", len(c.Nets), pins, spec.Nets, spec.Pins)
	}
	if minDeg < 2 || maxDeg > 24 {
		t.Errorf("degree range %d..%d", minDeg, maxDeg)
	}
	if mean := float64(pins) / float64(len(c.Nets)); mean < 2 || mean > 6 {
		t.Errorf("mean degree %.2f", mean)
	}
	if frac := float64(local) / float64(len(c.Nets)); frac <= 0 || frac >= 1 {
		t.Errorf("local fraction %.2f", frac)
	}
	if density := float64(pins) / float64(c.Fabric.XTracks*c.Fabric.YTracks); density <= 0 || density > 0.5 {
		t.Errorf("pin density %.3f", density)
	}
}

// TestGenerateHashContract pins benchmark generation determinism as a
// contract on the canonical circuit hash — the same identity the server's
// result cache and the harness golden files are keyed on: identical spec
// (including SeedOffset) must produce the byte-identical circuit, and a
// different SeedOffset must produce a genuinely different instance.
func TestGenerateHashContract(t *testing.T) {
	spec, _ := ByName("S5378")
	hash := func(s Spec) string {
		h, err := nlio.CircuitHash(Generate(s))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	base := hash(spec)
	if again := hash(spec); again != base {
		t.Errorf("same spec hashed differently: %s vs %s", base[:12], again[:12])
	}
	off := spec
	off.SeedOffset = 1
	if variant := hash(off); variant == base {
		t.Error("SeedOffset=1 produced the identical circuit; variance instances are broken")
	}
	other, _ := ByName("S9234")
	if hash(other) == base {
		t.Error("different benchmarks produced identical circuits")
	}
}

// Package bench generates the synthetic benchmark circuits used by every
// experiment. The paper evaluates on the MCNC benchmarks and the industrial
// Faraday benchmarks (Tables I–II), which are not redistributable; this
// package substitutes deterministic synthetic circuits that reproduce each
// benchmark's published statistics — layer count, net count, pin count, and
// die aspect ratio — with a Rent-style pin-spread distribution so the
// bottom-up multilevel router sees a realistic mix of local and global nets.
//
// Grid dimensions are derived from the pin count (area ∝ pins) rather than
// from the paper's absolute µm sizes: at the paper's 36/32 nm shrink the
// dies would be ~16k × 8k routing tracks, which only changes scale, not the
// comparative behaviour the experiments measure.
package bench

import (
	"fmt"
	"math"
	"math/rand"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
)

// Spec describes one benchmark circuit row of Table I or Table II.
type Spec struct {
	Name             string
	Suite            string  // "MCNC" or "Faraday"
	MicronW, MicronH float64 // die size from the paper, for Tables I–II
	Layers           int
	Nets             int
	Pins             int
	// AreaPerPin is the synthetic die area in tracks² allotted per pin.
	AreaPerPin float64
	// Spread controls net locality: the mean pin spread radius in tracks.
	Spread float64
	// SeedOffset perturbs the deterministic generator seed, producing an
	// independent instance with the same statistics (variance studies).
	// The contract — tested via the canonical circuit hash — is that the
	// same (Name, SeedOffset) pair always generates the byte-identical
	// circuit, while different offsets generate different pin placements.
	// Anything keyed on circuit content (golden metrics files, the
	// server's result cache) relies on this; changing the generator or
	// the seed derivation invalidates both.
	SeedOffset int64
}

// MCNC returns the nine MCNC benchmark specs of Table I.
func MCNC() []Spec {
	return []Spec{
		{"Struct", "MCNC", 4903, 4904, 3, 1920, 5471, 18, 9, 0},
		{"Primary1", "MCNC", 7522, 4988, 3, 904, 2941, 18, 9, 0},
		{"Primary2", "MCNC", 10438, 6488, 3, 3029, 11226, 18, 9, 0},
		{"S5378", "MCNC", 435, 239, 3, 1694, 4818, 10, 9, 0},
		{"S9234", "MCNC", 404, 225, 3, 1486, 4260, 10, 9, 0},
		{"S13207", "MCNC", 660, 365, 3, 3781, 10776, 10, 9, 0},
		{"S15850", "MCNC", 705, 389, 3, 4472, 12793, 10, 9, 0},
		{"S38417", "MCNC", 1144, 619, 3, 11309, 32344, 10, 9, 0},
		{"S38584", "MCNC", 1295, 672, 3, 14754, 42931, 10, 9, 0},
	}
}

// Faraday returns the five industrial Faraday benchmark specs of Table II.
func Faraday() []Spec {
	return []Spec{
		{"DMA", "Faraday", 408.4, 408.4, 6, 13256, 73982, 9, 10, 0},
		{"DSP1", "Faraday", 706, 706, 6, 28447, 144872, 9, 10, 0},
		{"DSP2", "Faraday", 642.8, 642.8, 6, 28431, 144703, 9, 10, 0},
		{"RISC1", "Faraday", 1003.6, 1003.6, 6, 34034, 196677, 9, 10, 0},
		{"RISC2", "Faraday", 959.6, 959.6, 6, 34034, 196670, 9, 10, 0},
	}
}

// All returns every benchmark spec, MCNC first.
func All() []Spec { return append(MCNC(), Faraday()...) }

// ByName returns the spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("bench: unknown circuit %q", name)
}

// Aspect returns the die width/height ratio from the paper.
func (s Spec) Aspect() float64 { return s.MicronW / s.MicronH }

// GridSize returns the synthetic track grid dimensions for the spec:
// area = AreaPerPin·Pins split by the paper's aspect ratio, rounded up to
// whole stitch pitches so tiles tile the die exactly.
func (s Spec) GridSize() (xTracks, yTracks int) {
	area := s.AreaPerPin * float64(s.Pins)
	w := math.Sqrt(area * s.Aspect())
	h := area / w
	roundUp := func(v float64) int {
		n := int(math.Ceil(v))
		if rem := n % grid.DefaultStitchPitch; rem != 0 {
			n += grid.DefaultStitchPitch - rem
		}
		if n < 2*grid.DefaultStitchPitch {
			n = 2 * grid.DefaultStitchPitch
		}
		return n
	}
	return roundUp(w), roundUp(h)
}

// seed derives a deterministic RNG seed from the circuit name and the
// spec's seed offset.
func (s Spec) seed() int64 {
	var h int64 = 1469598103934665603
	for _, c := range s.Name {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h + s.SeedOffset*2654435761
}

// Generate builds the synthetic circuit for the spec. The result is
// deterministic for a given spec.
func Generate(s Spec) *netlist.Circuit {
	rng := rand.New(rand.NewSource(s.seed()))
	xT, yT := s.GridSize()
	f := grid.New(xT, yT, s.Layers)

	degrees := netDegrees(rng, s.Nets, s.Pins)
	nets := make([]*netlist.Net, s.Nets)
	used := make(map[geom.Point]bool, s.Pins)
	for i := range nets {
		nets[i] = &netlist.Net{
			ID:   i,
			Name: fmt.Sprintf("%s_n%d", s.Name, i),
			Pins: placePins(rng, f, degrees[i], s.Spread, used),
		}
	}
	return &netlist.Circuit{Name: s.Name, Fabric: f, Nets: nets}
}

// netDegrees distributes pins pins over n nets, each net getting at least
// two, with a geometric-style tail so most nets are 2–3 pins and a few are
// large — matching standard-cell netlist shape.
func netDegrees(rng *rand.Rand, n, pins int) []int {
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 2
	}
	extra := pins - 2*n
	for extra > 0 {
		i := rng.Intn(n)
		// Favor nets that are still small, cap degree at 24.
		if deg[i] < 24 && (deg[i] < 4 || rng.Intn(deg[i]) == 0) {
			deg[i]++
			extra--
		}
	}
	return deg
}

// placePins places deg pins around a random net center. The spread radius
// follows a truncated Pareto so most nets are tile-local and a few span a
// large fraction of the die (Rent-style locality). Pin locations are
// unique across the whole circuit (pins are physical terminals; two nets
// cannot share a track point).
func placePins(rng *rand.Rand, f *grid.Fabric, deg int, meanSpread float64, used map[geom.Point]bool) []netlist.Pin {
	cx := rng.Intn(f.XTracks)
	cy := rng.Intn(f.YTracks)
	// Pareto(α≈1.1) scaled so the median spread is about meanSpread.
	u := rng.Float64()
	if u < 1e-9 {
		u = 1e-9
	}
	radius := int(meanSpread * math.Pow(u, -1/1.1) / 2)
	maxR := (f.XTracks + f.YTracks) / 6
	if radius > maxR {
		radius = maxR
	}
	// High-degree nets need room: keep the pin cluster under ~25% local
	// pin density so every pin stays escapable.
	if minR := int(math.Sqrt(float64(deg) * 4)); radius < minR {
		radius = minR
	}
	if radius < 2 {
		radius = 2
	}

	pins := make([]netlist.Pin, 0, deg)
	attempts := 0
	for len(pins) < deg {
		p := geom.Point{
			X: geom.Clamp(cx+rng.Intn(2*radius+1)-radius, 0, f.XTracks-1),
			Y: geom.Clamp(cy+rng.Intn(2*radius+1)-radius, 0, f.YTracks-1),
		}
		attempts++
		if used[p] {
			if attempts < 20*deg {
				continue
			}
			// Crowded neighbourhood: widen the radius so the pin count
			// stays exact.
			radius += f.StitchPitch
			attempts = 0
			continue
		}
		used[p] = true
		pins = append(pins, netlist.Pin{Point: p, Layer: 1})
	}
	return pins
}

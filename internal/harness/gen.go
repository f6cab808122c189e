package harness

import (
	"fmt"
	"math"
	"math/rand"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
)

// GenSpec parameterizes one random circuit of the harness. Unlike
// bench.Spec, which reproduces the paper's fixed benchmark statistics,
// GenSpec spans a parameter grid — net count, pin spread, stripe width,
// fabric size — so the battery attacks the pipeline with shapes the
// curated benchmarks never produce. Generation is deterministic: the same
// spec (including Seed) always yields the same circuit, which the
// determinism property in this package turns into a tested contract.
type GenSpec struct {
	// Name labels the circuit in reports; derived from the parameters
	// when empty.
	Name string
	// Seed drives every random choice of the generator.
	Seed int64
	// XTracks, YTracks, Layers size the fabric.
	XTracks, YTracks, Layers int
	// StitchPitch overrides the stripe width; 0 means the paper default.
	StitchPitch int
	// SUREps overrides the stitch-unfriendly half width; 0 keeps the
	// paper default.
	SUREps int
	// Nets is the net count.
	Nets int
	// Spread is the mean pin-spread radius in tracks: small values make
	// tile-local nets, large values make global nets.
	Spread float64
	// MaxDegree caps pins per net (minimum degree is always 2); 0 means 8.
	MaxDegree int
}

// String returns the spec's display name.
func (s GenSpec) String() string {
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("rand-%dx%dx%d-p%d-n%d-s%g-seed%d",
		s.XTracks, s.YTracks, s.Layers, s.pitch(), s.Nets, s.Spread, s.Seed)
}

func (s GenSpec) pitch() int {
	if s.StitchPitch > 0 {
		return s.StitchPitch
	}
	return grid.DefaultStitchPitch
}

// Fabric builds the spec's routing fabric.
func (s GenSpec) Fabric() *grid.Fabric {
	f := grid.New(s.XTracks, s.YTracks, s.Layers)
	if s.StitchPitch > 0 {
		f.StitchPitch = s.StitchPitch
	}
	if s.SUREps > 0 {
		f.SUREps = s.SUREps
	}
	// Keep the escape region legal for narrow stripes.
	if f.EscapeWidth < f.SUREps {
		f.EscapeWidth = f.SUREps
	}
	for f.EscapeWidth > f.SUREps && f.EscapeWidth*2+1 >= f.StitchPitch {
		f.EscapeWidth--
	}
	return f
}

// Generate builds the deterministic random circuit for the spec. Pin
// locations are unique across the circuit and may fall on stitching-line
// columns — those become the unavoidable pin-forced via violations the
// DRC separates from router errors.
func Generate(s GenSpec) *netlist.Circuit {
	rng := rand.New(rand.NewSource(s.Seed ^ 0x5eed5eed))
	f := s.Fabric()
	maxDeg := s.MaxDegree
	if maxDeg < 2 {
		maxDeg = 8
	}

	nets := make([]*netlist.Net, s.Nets)
	used := make(map[geom.Point]bool)
	for i := range nets {
		deg := 2
		for deg < maxDeg && rng.Intn(3) == 0 {
			deg++
		}
		nets[i] = &netlist.Net{
			ID:   i,
			Name: fmt.Sprintf("r%d", i),
			Pins: scatterPins(rng, f, deg, s.Spread, used),
		}
	}
	return &netlist.Circuit{Name: s.String(), Fabric: f, Nets: nets}
}

// scatterPins places deg unique pins around a random center with an
// exponential spread, widening the radius when the neighbourhood is
// saturated so the pin count stays exact.
func scatterPins(rng *rand.Rand, f *grid.Fabric, deg int, spread float64, used map[geom.Point]bool) []netlist.Pin {
	cx, cy := rng.Intn(f.XTracks), rng.Intn(f.YTracks)
	radius := int(spread * (0.5 + rng.ExpFloat64()))
	if minR := int(math.Sqrt(float64(deg)) * 2); radius < minR {
		radius = minR
	}
	maxR := (f.XTracks + f.YTracks) / 4
	if radius > maxR {
		radius = maxR
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
			if attempts >= 20*deg {
				radius += f.StitchPitch
				attempts = 0
			}
			continue
		}
		used[p] = true
		pins = append(pins, netlist.Pin{Point: p, Layer: 1})
	}
	return pins
}

// ShortGrid returns the quick parameter grid: a handful of small fabrics
// covering narrow and wide stripes, local and global pin spreads, and
// both 3- and 4-layer stacks. It is the grid `go test -short` runs.
func ShortGrid() []GenSpec {
	return []GenSpec{
		{XTracks: 90, YTracks: 60, Layers: 3, Nets: 40, Spread: 8},
		{XTracks: 90, YTracks: 90, Layers: 3, Nets: 60, Spread: 25},
		{XTracks: 80, YTracks: 80, Layers: 3, StitchPitch: 10, SUREps: 2, Nets: 50, Spread: 12},
		{XTracks: 120, YTracks: 90, Layers: 4, Nets: 90, Spread: 15, MaxDegree: 12},
	}
}

// FullGrid returns the soak parameter grid: ShortGrid plus larger
// fabrics, a wide-stripe fabric, a 6-layer stack, and a high-degree
// workload. cmd/routecheck crosses it with many seeds.
func FullGrid() []GenSpec {
	return append(ShortGrid(),
		GenSpec{XTracks: 210, YTracks: 150, Layers: 3, Nets: 220, Spread: 20},
		GenSpec{XTracks: 150, YTracks: 150, Layers: 3, StitchPitch: 21, SUREps: 3, Nets: 140, Spread: 30},
		GenSpec{XTracks: 180, YTracks: 120, Layers: 6, Nets: 200, Spread: 18, MaxDegree: 16},
		GenSpec{XTracks: 240, YTracks: 90, Layers: 4, StitchPitch: 12, Nets: 160, Spread: 40},
	)
}

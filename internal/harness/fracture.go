package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"stitchroute/internal/fracture"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
	"stitchroute/internal/stencil"
)

// FractureMetrics is the per-benchmark write-prep snapshot committed to
// the fracture golden file. Fracturing is deterministic over committed
// routes, so unlike the routing Metrics these compare exactly — any
// drift is a real behavior change.
type FractureMetrics struct {
	Circuit    string  `json:"circuit"`
	RectShots  int     `json:"rectShots"`
	LShapeShot int     `json:"lshapeShots"`
	LShots     int     `json:"lShots"`
	Slivers    int     `json:"slivers"`
	Area       int64   `json:"area"`
	Reduction  float64 `json:"reduction"`
	ShotsHash  string  `json:"shotsHash"` // canonical hash of the lshape shot list
	// RectShotsHash is the canonical hash of the rect-mode shot list.
	RectShotsHash string `json:"rectShotsHash"`
	// The default-options stencil plan over the lshape shots.
	PlanHash   string  `json:"planHash"`
	CPTime     float64 `json:"cpTime"`
	CPFlashes  int     `json:"cpFlashes"`
	Candidates int     `json:"candidates"`
}

// CollectFracture fractures the routed geometry in both modes, plans a
// stencil over the lshape shots and extracts the golden write-prep
// metrics.
func CollectFracture(c *netlist.Circuit, routes []plan.NetRoute) (FractureMetrics, error) {
	rect := fracture.Fracture(routes, c.Fabric.Layers, fracture.ModeRect, fracture.Options{})
	ls := fracture.Fracture(routes, c.Fabric.Layers, fracture.ModeLShape, fracture.Options{})
	hash, err := fracture.ShotsHash(ls.Shots)
	if err != nil {
		return FractureMetrics{}, err
	}
	rectHash, err := fracture.ShotsHash(rect.Shots)
	if err != nil {
		return FractureMetrics{}, err
	}
	pl := stencil.Build(ls.Shots, stencil.Options{})
	planHash, err := stencil.PlanHash(pl)
	if err != nil {
		return FractureMetrics{}, err
	}
	return FractureMetrics{
		Circuit:    c.Name,
		RectShots:  rect.ShotCount,
		LShapeShot: ls.ShotCount,
		LShots:     ls.LShots,
		Slivers:    ls.Slivers,
		Area:       ls.Area,
		Reduction:  math.Round(ls.LShapeReduction()*1000) / 1000,
		ShotsHash:  hash,

		RectShotsHash: rectHash,
		PlanHash:      planHash,
		CPTime:        pl.CPTime,
		CPFlashes:     pl.CPFlashes,
		Candidates:    pl.Candidates,
	}, nil
}

// CompareFracture returns the mismatches between measured and golden
// write-prep metrics (exact comparison), plus the structural invariant
// that L-shape fracturing strictly beats the rectangle baseline.
func CompareFracture(got, want FractureMetrics) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if got.Circuit != want.Circuit {
		fail("identity mismatch: got %s, want %s", got.Circuit, want.Circuit)
		return bad
	}
	if got.RectShots != want.RectShots {
		fail("rect shots %d, want %d", got.RectShots, want.RectShots)
	}
	if got.LShapeShot != want.LShapeShot {
		fail("lshape shots %d, want %d", got.LShapeShot, want.LShapeShot)
	}
	if got.LShots != want.LShots {
		fail("L shots %d, want %d", got.LShots, want.LShots)
	}
	if got.Slivers != want.Slivers {
		fail("slivers %d, want %d", got.Slivers, want.Slivers)
	}
	if got.Area != want.Area {
		fail("area %d, want %d", got.Area, want.Area)
	}
	if got.ShotsHash != want.ShotsHash {
		fail("shot hash %.12s, want %.12s (shot list changed)", got.ShotsHash, want.ShotsHash)
	}
	if got.RectShotsHash != want.RectShotsHash {
		fail("rect shot hash %.12s, want %.12s (rect shot list changed)", got.RectShotsHash, want.RectShotsHash)
	}
	if got.PlanHash != want.PlanHash {
		fail("stencil plan hash %.12s, want %.12s (plan changed)", got.PlanHash, want.PlanHash)
	}
	if math.Abs(got.CPTime-want.CPTime) > 1e-9 {
		fail("stencil CP time %v, want %v", got.CPTime, want.CPTime)
	}
	if got.CPFlashes != want.CPFlashes {
		fail("stencil CP flashes %d, want %d", got.CPFlashes, want.CPFlashes)
	}
	if got.Candidates != want.Candidates {
		fail("stencil candidates %d, want %d", got.Candidates, want.Candidates)
	}
	if got.LShapeShot >= got.RectShots {
		fail("L-shape fracturing (%d shots) does not beat the rectangle baseline (%d)",
			got.LShapeShot, got.RectShots)
	}
	return bad
}

// WriteFractureGolden writes the write-prep metrics as a deterministic,
// diff-friendly JSON file.
func WriteFractureGolden(path string, ms []FractureMetrics) error {
	data, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFractureGolden loads the write-prep golden file.
func ReadFractureGolden(path string) ([]FractureMetrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms []FractureMetrics
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ms, nil
}

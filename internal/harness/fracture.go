package harness

import (
	"fmt"
	"math"

	"stitchroute/internal/fracture"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
	"stitchroute/internal/stencil"
)

// FractureMetrics is the per-benchmark write-prep snapshot committed to
// the fracture golden file. Fracturing is deterministic over committed
// routes, so these compare exactly — any drift is a real behavior
// change.
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
	return WritePrepMetrics(c.Name, rect, ls, stencil.Build(ls.Shots, stencil.Options{}))
}

// WritePrepMetrics extracts the golden write-prep metrics of a circuit's
// rect and lshape fractures and the default-options stencil plan over
// the lshape shots.
func WritePrepMetrics(circuit string, rect, ls *fracture.Result, pl *stencil.Plan) (FractureMetrics, error) {
	hash, err := fracture.ShotsHash(ls.Shots)
	if err != nil {
		return FractureMetrics{}, err
	}
	rectHash, err := fracture.ShotsHash(rect.Shots)
	if err != nil {
		return FractureMetrics{}, err
	}
	planHash, err := stencil.PlanHash(pl)
	if err != nil {
		return FractureMetrics{}, err
	}
	return FractureMetrics{
		Circuit:    circuit,
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
// write-prep metrics (Compare), plus the structural invariant that
// L-shape fracturing strictly beats the rectangle baseline.
func CompareFracture(got, want FractureMetrics) []string {
	bad := Compare(got, want)
	if got.LShapeShot >= got.RectShots {
		bad = append(bad, fmt.Sprintf("L-shape fracturing (%d shots) does not beat the rectangle baseline (%d)",
			got.LShapeShot, got.RectShots))
	}
	return bad
}

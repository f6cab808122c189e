package experiments

import (
	"fmt"
	"io"

	"stitchroute/internal/core"
	"stitchroute/internal/detail"
	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/plan"
	"stitchroute/internal/raster"
)

// PhysicalSummary is the rasterization-level validation of a routing
// solution: every horizontal wire cut by a stitching line is written as
// two misaligned beam halves, dithered, and scored (§II-A). The router's
// #SP metric is a proxy; this measures the simulated damage directly.
type PhysicalSummary struct {
	Cuts    int // stitch-line cuts across all routed wires
	ViaCuts int // cuts whose shorter-side end carries a landing via
	// ShortStubViaCuts counts the dangerous regime: a landing via on a
	// stub within the stitch-unfriendly distance — exactly the short
	// polygons the router minimizes. These carry the extreme defect
	// scores (Fig. 4's left end).
	ShortStubViaCuts int
	TotalDefect      float64 // summed defect score over all cuts
	WorstDefect      float64
}

// overlayMisalign is the beam-to-beam overlay error used by the physical
// simulation, in pixels (one pixel = one track here).
const overlayMisalign = 0.45

// PhysicalDefects rasterizes every stitch-cut horizontal wire of the
// routed solution and accumulates dithering defect scores.
func PhysicalDefects(f *grid.Fabric, routes []plan.NetRoute) PhysicalSummary {
	var sum PhysicalSummary
	for i := range routes {
		if !routes[i].Routed {
			continue
		}
		via := map[[3]int]bool{}
		for _, v := range routes[i].Vias {
			via[[3]int{v.X, v.Y, v.Layer}] = true
			via[[3]int{v.X, v.Y, v.Layer + 1}] = true
		}
		for _, w := range detail.MergedWires(routes[i].Wires) {
			if w.Orient != geom.Horizontal || w.Span.Len() < 2 {
				continue
			}
			for _, s := range f.StitchCols() {
				if !(w.Span.Lo < s && s < w.Span.Hi) {
					continue
				}
				sum.Cuts++
				// Score the shorter side of the cut: its stub length
				// controls the damage (Fig. 4).
				stub := s - w.Span.Lo
				end := w.Span.Lo
				if w.Span.Hi-s < stub {
					stub = w.Span.Hi - s
					end = w.Span.Hi
				}
				length := w.Span.Len() - 1
				score, err := raster.CutWireDefect(length+1, geom.Clamp(stub, 1, length), overlayMisalign)
				if err != nil {
					continue
				}
				if via[[3]int{end, w.Fixed, w.Layer}] {
					sum.ViaCuts++
					if stub <= f.SUREps {
						sum.ShortStubViaCuts++
					}
					// A landing via turns the distortion into a likely
					// open/short (§II-A): count it at full weight. Cuts
					// without a via only risk line-width variation.
					score *= 2
				}
				sum.TotalDefect += score
				if score > sum.WorstDefect {
					sum.WorstDefect = score
				}
			}
		}
	}
	return sum
}

// Physical runs the physical validation on one circuit for both routers.
func Physical(circuit string) (base, ours PhysicalSummary, err error) {
	cb, resB, err := RouteCircuit(circuit, core.Baseline())
	if err != nil {
		return base, ours, err
	}
	base = PhysicalDefects(cb.Fabric, resB.Routes)
	co, resO, err := RouteCircuit(circuit, core.StitchAware())
	if err != nil {
		return base, ours, err
	}
	ours = PhysicalDefects(co.Fabric, resO.Routes)
	return base, ours, nil
}

// FprintPhysical renders the physical-validation comparison.
func FprintPhysical(w io.Writer, circuit string, base, ours PhysicalSummary) {
	fmt.Fprintf(w, "Physical (rasterization) validation on %s, overlay %.2f px\n", circuit, overlayMisalign)
	fmt.Fprintf(w, "%-14s %8s %9s %10s %13s %12s\n", "Router", "cuts", "via-cuts", "SP-regime", "total defect", "worst defect")
	for _, row := range []struct {
		name string
		s    PhysicalSummary
	}{{"baseline", base}, {"stitch-aware", ours}} {
		fmt.Fprintf(w, "%-14s %8d %9d %10d %13.2f %12.3f\n",
			row.name, row.s.Cuts, row.s.ViaCuts, row.s.ShortStubViaCuts, row.s.TotalDefect, row.s.WorstDefect)
	}
	if base.TotalDefect > 0 {
		fmt.Fprintf(w, "defect-mass ratio: %.3f\n", ours.TotalDefect/base.TotalDefect)
	}
}

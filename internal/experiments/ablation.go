package experiments

import (
	"fmt"
	"io"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/place"
)

// AblationRow is one design-choice variant's result.
type AblationRow struct {
	Variant string
	RouteSummary
	TVOF int
}

// Ablations measures the contribution of each stitch-aware design choice
// DESIGN.md calls out, by disabling them one at a time on the full
// framework:
//
//   - escape cost γ (reserving the tracks nearest a stitching line)
//   - via-in-SUR cost β (the dominant short-polygon penalty)
//   - stitch-aware net ordering (bad-end nets first)
//   - global rip-up/reroute refinement
//
// plus one extension enabled on top of the full framework: the paper's
// proposed stitch-aware placement (§V).
func Ablations(circuit string) ([]AblationRow, error) {
	spec, err := bench.ByName(circuit)
	if err != nil {
		return nil, err
	}

	type variant struct {
		name  string
		cfg   core.Config
		place bool
	}
	noEscape := core.StitchAware()
	noEscape.Detail.Gamma = 0
	noBeta := core.StitchAware()
	noBeta.Detail.Beta = 0
	noOrder := core.StitchAware()
	noOrder.Detail.OrderByBadEnds = false
	noRefine := core.StitchAware()
	noRefine.RefinePasses = 0

	variants := []variant{
		{"full stitch-aware", core.StitchAware(), false},
		{"no escape cost (γ=0)", noEscape, false},
		{"no via-SUR cost (β=0)", noBeta, false},
		{"no bad-end net order", noOrder, false},
		{"no global refinement", noRefine, false},
		{"+ stitch-aware place", core.StitchAware(), true},
		{"baseline (everything off)", core.Baseline(), false},
	}

	var rows []AblationRow
	for _, v := range variants {
		c := bench.Generate(spec)
		if v.place {
			c, _ = place.Refine(c)
		}
		res, err := core.Route(c, v.cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant:      v.name,
			RouteSummary: summarize(res),
			TVOF:         res.TVOF,
		})
	}
	return rows, nil
}

// FprintAblations renders the ablation table.
func FprintAblations(w io.Writer, circuit string, rows []AblationRow) {
	fmt.Fprintf(w, "Ablations on %s\n", circuit)
	fmt.Fprintf(w, "%-28s %8s %6s %6s %6s %9s %8s\n",
		"Variant", "Rout%", "#VV", "#SP", "TVOF", "WL", "CPU(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8.2f %6d %6d %6d %9d %8.2f\n",
			r.Variant, r.Rout, r.VV, r.SP, r.TVOF, r.WL, r.CPU.Seconds())
	}
}

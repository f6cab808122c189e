package experiments

import (
	"fmt"
	"io"

	"stitchroute/internal/core"
)

// SweepRow is one point of the β/γ parameter sweep.
type SweepRow struct {
	Beta, Gamma float64
	RouteSummary
}

// SweepBetaGamma maps the eq. (10) cost-weight space on one circuit: for
// each (β, γ) pair the full stitch-aware flow runs and reports #SP,
// wirelength, and routability. The paper fixes β=10, γ=5; the sweep shows
// that plateau (β dominates #SP; γ buys SUR safety for small WL).
func SweepBetaGamma(circuit string, betas, gammas []float64) ([]SweepRow, error) {
	var rows []SweepRow
	var cfgs []core.Config
	for _, b := range betas {
		for _, g := range gammas {
			cfg := core.StitchAware()
			cfg.Detail.Beta, cfg.Detail.Gamma = b, g
			cfgs = append(cfgs, cfg)
			rows = append(rows, SweepRow{Beta: b, Gamma: g})
		}
	}
	arms, err := routeArms(circuit, cfgs...)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].RouteSummary = arms[i]
	}
	return rows, nil
}

// DefaultSweep returns the grid swept by cmd/tablegen -sweep.
func DefaultSweep() (betas, gammas []float64) {
	return []float64{0, 2, 5, 10, 20}, []float64{0, 5}
}

// FprintSweep renders the sweep results.
func FprintSweep(w io.Writer, circuit string, rows []SweepRow) {
	fmt.Fprintf(w, "β/γ sweep on %s (paper: β=10, γ=5)\n", circuit)
	fmt.Fprintf(w, "%6s %6s | %8s %6s %9s %8s\n", "β", "γ", "Rout%", "#SP", "WL", "CPU(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%6.0f %6.0f | %8.2f %6d %9d %8.2f\n",
			r.Beta, r.Gamma, r.Routability, r.ShortPolygons, r.Wirelength, r.CPU.Seconds())
	}
}

package experiments

import (
	"fmt"
	"io"
	"math"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
)

// VarianceRow is one independently generated instance's result pair.
type VarianceRow struct {
	Seed           int64
	Baseline, Ours RouteSummary
}

// VarianceSummary aggregates the study.
type VarianceSummary struct {
	Rows []VarianceRow
	// SPRatioMean/Std summarize ours/baseline short polygons across seeds.
	SPRatioMean, SPRatioStd float64
	// RoutDeltaMean is the mean routability difference (ours - baseline).
	RoutDeltaMean float64
}

// Variance re-generates the named circuit with nSeeds independent seeds
// and routes each with both routers — the robustness check that the
// headline Table III result is not an artifact of one synthetic instance.
func Variance(circuit string, nSeeds int) (VarianceSummary, error) {
	var sum VarianceSummary
	spec, err := bench.ByName(circuit)
	if err != nil {
		return sum, err
	}
	rows := make([]VarianceRow, nSeeds)
	err = forEachCircuit(make([]string, nSeeds), func(i int, _ string) error {
		sp := spec
		sp.SeedOffset = int64(i)
		c := bench.Generate(sp)
		base, err := core.Route(c, core.Baseline())
		if err != nil {
			return err
		}
		c2 := bench.Generate(sp)
		ours, err := core.Route(c2, core.StitchAware())
		if err != nil {
			return err
		}
		rows[i] = VarianceRow{Seed: int64(i), Baseline: summarize(base), Ours: summarize(ours)}
		return nil
	})
	if err != nil {
		return sum, err
	}
	sum.Rows = rows
	var ratios []float64
	for _, r := range rows {
		if r.Baseline.ShortPolygons > 0 {
			ratios = append(ratios, float64(r.Ours.ShortPolygons)/float64(r.Baseline.ShortPolygons))
		}
		sum.RoutDeltaMean += r.Ours.Routability - r.Baseline.Routability
	}
	sum.RoutDeltaMean /= float64(len(rows))
	for _, v := range ratios {
		sum.SPRatioMean += v
	}
	if len(ratios) > 0 {
		sum.SPRatioMean /= float64(len(ratios))
		for _, v := range ratios {
			d := v - sum.SPRatioMean
			sum.SPRatioStd += d * d
		}
		sum.SPRatioStd = math.Sqrt(sum.SPRatioStd / float64(len(ratios)))
	}
	return sum, nil
}

// FprintVariance renders the study.
func FprintVariance(w io.Writer, circuit string, s VarianceSummary) {
	fmt.Fprintf(w, "Seed variance on %s (%d independent instances)\n", circuit, len(s.Rows))
	fmt.Fprintf(w, "%6s | %9s %6s | %9s %6s\n", "seed", "BaseRout%", "#SP", "OursRout%", "#SP")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%6d | %9.2f %6d | %9.2f %6d\n",
			r.Seed, r.Baseline.Routability, r.Baseline.ShortPolygons, r.Ours.Routability, r.Ours.ShortPolygons)
	}
	fmt.Fprintf(w, "SP ratio %.4f ± %.4f, routability delta %+.2f%%\n",
		s.SPRatioMean, s.SPRatioStd, s.RoutDeltaMean)
}

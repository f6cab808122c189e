// Benchmark harness: one testing.B entry per table and figure of the
// paper's evaluation (§IV). Each benchmark runs the corresponding
// experiment from internal/experiments on a representative circuit; run
// the full suites with cmd/tablegen -circuits all.
package stitchroute

import (
	"io"
	"strings"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/experiments"
)

// BenchmarkTable1 generates every MCNC circuit (Table I).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range bench.MCNC() {
			c := bench.Generate(s)
			if len(c.Nets) != s.Nets {
				b.Fatal("net count mismatch")
			}
		}
	}
}

// BenchmarkTable2 generates every Faraday circuit (Table II).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range bench.Faraday() {
			c := bench.Generate(s)
			if len(c.Nets) != s.Nets {
				b.Fatal("net count mismatch")
			}
		}
	}
}

// BenchmarkTable3 runs the baseline-vs-stitch-aware comparison on a small
// MCNC circuit (Table III).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3([]string{"S9234"})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Ours.ShortPolygons > rows[0].Baseline.ShortPolygons {
			b.Fatalf("SP regression: %d > %d", rows[0].Ours.ShortPolygons, rows[0].Baseline.ShortPolygons)
		}
	}
}

// BenchmarkTable4 runs the global-routing line-end ablation on one hard
// circuit (Table IV).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4([]string{"S13207"})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].With.TVOF > rows[0].Without.TVOF {
			b.Fatal("line-end cost increased overflow")
		}
	}
}

// BenchmarkTable5 computes the instance statistics (Table V).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := experiments.DefaultInstanceSet().Table5()
		if st.Instances != 50 {
			b.Fatal("instance count")
		}
	}
}

// BenchmarkTable6 runs the layer-assignment comparison (Table VI).
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.DefaultInstanceSet().Table6()
		if rows[len(rows)-1].Ours > rows[len(rows)-1].MST {
			b.Fatal("ours worse than MST at k=5")
		}
	}
}

// BenchmarkTable7 compares the three track-assignment algorithms
// (Table VII).
func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table7([]string{"S9234"})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Graph.ShortPolygons > rows[0].Conv.ShortPolygons {
			b.Fatal("graph-based worse than conventional")
		}
	}
}

// BenchmarkTable8 runs the detailed-routing ablation (Table VIII).
func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table8([]string{"S9234"})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].With.ShortPolygons > rows[0].Without.ShortPolygons {
			b.Fatal("stitch-aware detail worse")
		}
	}
}

// BenchmarkFig4 runs the rasterization-defect sweep (Fig. 4).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig15 renders the full-chip SVG of a routed circuit (Fig. 15;
// the paper uses S38417 — the harness uses a smaller circuit so the
// benchmark stays minutes-free, cmd/layoutviz renders the real one).
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := experiments.Fig15(&sb, "S9234"); err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(sb.String(), "</svg>") {
			b.Fatal("incomplete SVG")
		}
	}
}

// BenchmarkFig16 renders the zoomed with/without comparison (Fig. 16).
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig16(io.Discard, io.Discard, "S9234"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the design-choice ablation suite (escape cost,
// via-SUR cost, net ordering, global refinement, placement) on one
// circuit.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations("S9234")
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) < 6 {
			b.Fatal("missing ablation variants")
		}
	}
}

// BenchmarkPhysicalValidation rasterizes the stitch cuts of both routers'
// solutions and compares simulated dithering damage (the §II-A physical
// story, applied to real routed geometry).
func BenchmarkPhysicalValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, ours, err := experiments.Physical("S9234")
		if err != nil {
			b.Fatal(err)
		}
		if ours.ViaCuts > base.ViaCuts {
			b.Fatal("stitch-aware regression in via cuts")
		}
	}
}

// BenchmarkTable6Gap runs the optimality-gap extension of the
// layer-assignment study (exact branch-and-bound on small instances).
func BenchmarkTable6Gap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table6Gap(7, 8, 8, 12, 2_000_000)
		if len(rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkVariance runs the seed-variance robustness study: the Table III
// headline on independent synthetic instances.
func BenchmarkVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum, err := experiments.Variance("S9234", 2)
		if err != nil {
			b.Fatal(err)
		}
		if sum.SPRatioMean > 0.2 {
			b.Fatalf("SP ratio regression: %.3f", sum.SPRatioMean)
		}
	}
}

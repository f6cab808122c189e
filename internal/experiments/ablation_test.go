package experiments

import (
	"strings"
	"testing"
)

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("routing experiment in -short mode")
	}
	rows, err := Ablations("S9234")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	full := byName["full stitch-aware"]
	base := byName["baseline (everything off)"]
	if full.ShortPolygons >= base.ShortPolygons {
		t.Errorf("full framework SP %d not below baseline %d", full.ShortPolygons, base.ShortPolygons)
	}
	// β is the dominant short-polygon control: removing it must hurt.
	if noBeta := byName["no via-SUR cost (β=0)"]; noBeta.ShortPolygons < full.ShortPolygons {
		t.Errorf("removing β improved SP: %d < %d", noBeta.ShortPolygons, full.ShortPolygons)
	}
	// Refinement clears the global vertex overflow.
	if noRef := byName["no global refinement"]; noRef.TVOF < full.TVOF {
		t.Errorf("removing refinement reduced TVOF: %d < %d", noRef.TVOF, full.TVOF)
	}
	// Placement eliminates pin via violations.
	if placed := byName["+ stitch-aware place"]; placed.ViaViolations >= full.ViaViolations && full.ViaViolations > 0 {
		t.Errorf("placement did not reduce VV: %d vs %d", placed.ViaViolations, full.ViaViolations)
	}
	var sb strings.Builder
	FprintAblations(&sb, "S9234", rows)
	if !strings.Contains(sb.String(), "full stitch-aware") {
		t.Error("ablation output missing variant names")
	}
}

func TestAblationsUnknownCircuit(t *testing.T) {
	if _, err := Ablations("nope"); err == nil {
		t.Error("unknown circuit accepted")
	}
}

func TestSweepBetaGamma(t *testing.T) {
	if testing.Short() {
		t.Skip("routing experiment in -short mode")
	}
	rows, err := SweepBetaGamma("S9234", []int{0, 10}, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[1].ShortPolygons > rows[0].ShortPolygons {
		t.Errorf("β=10 SP %d above β=0 SP %d", rows[1].ShortPolygons, rows[0].ShortPolygons)
	}
	var sb strings.Builder
	FprintSweep(&sb, "S9234", rows)
	if !strings.Contains(sb.String(), "sweep") {
		t.Error("missing header")
	}
}

func TestVarianceRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("routing experiment in -short mode")
	}
	sum, err := Variance("S9234", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 3 {
		t.Fatalf("%d rows", len(sum.Rows))
	}
	// The headline SP reduction must hold on every independent instance.
	for _, r := range sum.Rows {
		if r.Baseline.ShortPolygons == 0 {
			t.Fatalf("seed %d: baseline produced no SPs", r.Seed)
		}
		if float64(r.Ours.ShortPolygons) > 0.2*float64(r.Baseline.ShortPolygons) {
			t.Errorf("seed %d: weak SP reduction %d -> %d", r.Seed, r.Baseline.ShortPolygons, r.Ours.ShortPolygons)
		}
	}
	if sum.SPRatioMean > 0.1 {
		t.Errorf("mean SP ratio %.3f too high", sum.SPRatioMean)
	}
	var sb strings.Builder
	FprintVariance(&sb, "S9234", sum)
	if !strings.Contains(sb.String(), "SP ratio") {
		t.Error("missing summary line")
	}
}

func TestVarianceUnknownCircuit(t *testing.T) {
	if _, err := Variance("nope", 2); err == nil {
		t.Error("unknown circuit accepted")
	}
}

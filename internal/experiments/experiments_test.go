package experiments

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/harness"
)

func TestTable12Formatting(t *testing.T) {
	var sb strings.Builder
	FprintTable12(&sb, bench.MCNC())
	out := sb.String()
	for _, want := range []string{"Struct", "S38584", "#Nets", "42931"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %q", want)
		}
	}
	if got := strings.Count(out, "\n"); got != 10 { // header + 9 rows
		t.Errorf("Table I has %d lines, want 10", got)
	}
}

// checkGolden fails the test unless the arm's quality record is exactly
// the harness golden entry of circuit under mode, or if there is none.
func checkGolden(t *testing.T, circuit, mode string, arm RouteSummary) {
	t.Helper()
	ms, err := harness.ReadGolden[harness.Metrics](
		filepath.Join("..", "harness", "testdata", "golden", circuit+".json"))
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(ms, func(m harness.Metrics) bool { return m.Mode == mode })
	if i < 0 {
		t.Fatalf("%s golden has no %q entry", circuit, mode)
	}
	for _, bad := range harness.Compare(arm.Quality, ms[i].Quality) {
		t.Errorf("%s/%s: %s", circuit, mode, bad)
	}
}

// TestTable3MatchesGoldens: on the circuits the harness goldens pin,
// each Table III arm carries exactly the pinned quality record, so a
// results table cannot disagree with a golden.
func TestTable3MatchesGoldens(t *testing.T) {
	rows, err := Table3([]string{"Primary1", "S5378", "S9234"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		checkGolden(t, r.Circuit, "stitch", r.Ours)
		checkGolden(t, r.Circuit, "baseline", r.Baseline)
	}
}

// TestTable7ILPMatchesGoldens: Table VII's ILP arm carries exactly the
// harness golden's "ilp" record.
func TestTable7ILPMatchesGoldens(t *testing.T) {
	rows, err := Table7([]string{"Primary1", "S9234"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		checkGolden(t, r.Circuit, "ilp", r.ILP)
	}
}

func TestTable5Statistics(t *testing.T) {
	set := DefaultInstanceSet()
	if len(set.Instances) != 50 {
		t.Fatalf("%d instances, want 50", len(set.Instances))
	}
	st := set.Table5()
	// Land in the neighbourhood of the paper's workload (Table V:
	// max 11.68 / avg 5.72 segment density, max 6.06 / avg 2.00 line-end).
	if st.SegMax < 6 || st.SegMax > 20 {
		t.Errorf("seg max density %.2f out of range", st.SegMax)
	}
	if st.SegAvg < 3 || st.SegAvg > 10 {
		t.Errorf("seg avg density %.2f out of range", st.SegAvg)
	}
	if st.EndAvg < 1 || st.EndAvg > 4 {
		t.Errorf("end avg density %.2f out of range", st.EndAvg)
	}
	var sb strings.Builder
	FprintTable5(&sb, st)
	if !strings.Contains(sb.String(), "50") {
		t.Error("Table V output missing instance count")
	}
}

func TestTable6ShapeMatchesPaper(t *testing.T) {
	set := DefaultInstanceSet()
	rows := set.Table6()
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (k=2..5)", len(rows))
	}
	for i, r := range rows {
		if r.K != i+2 {
			t.Errorf("row %d has k=%d", i, r.K)
		}
		if r.Ours > r.MST {
			t.Errorf("k=%d: ours %.2f worse than MST %.2f", r.K, r.Ours, r.MST)
		}
	}
	// Paper's key claim: improvement grows with k (13.9% -> 59.4%).
	if rows[3].ImprovementPercent <= rows[0].ImprovementPercent {
		t.Errorf("improvement not increasing: k=2 %.1f%%, k=5 %.1f%%",
			rows[0].ImprovementPercent, rows[3].ImprovementPercent)
	}
	var sb strings.Builder
	FprintTable6(&sb, rows)
	if !strings.Contains(sb.String(), "Improvement") {
		t.Error("Table VI output missing improvement row")
	}
}

func TestFig4ShortStubsWorse(t *testing.T) {
	rows, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatal("too few Fig. 4 points")
	}
	if rows[0].Score < rows[len(rows)-1].Score {
		t.Errorf("shortest stub score %.4f below longest %.4f — Fig. 4 shape lost",
			rows[0].Score, rows[len(rows)-1].Score)
	}
	var sb strings.Builder
	FprintFig4(&sb, rows)
	if !strings.Contains(sb.String(), "defect") {
		t.Error("Fig. 4 output missing header")
	}
}

func TestTable3SmallCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("routing experiment in -short mode")
	}
	rows, err := Table3([]string{"S9234"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatal("row count")
	}
	r := rows[0]
	if r.Ours.ShortPolygons >= r.Baseline.ShortPolygons {
		t.Errorf("stitch-aware SP %d not below baseline %d", r.Ours.ShortPolygons, r.Baseline.ShortPolygons)
	}
	if r.Ours.Routability < 95 || r.Baseline.Routability < 95 {
		t.Errorf("routability degraded: base %.2f ours %.2f", r.Baseline.Routability, r.Ours.Routability)
	}
	var sb strings.Builder
	FprintTable3(&sb, rows)
	if !strings.Contains(sb.String(), "Comp.") {
		t.Error("Table III output missing comparison row")
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("routing experiment in -short mode")
	}
	rows, err := Table4([]string{"S13207"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.With.TVOF > r.Without.TVOF {
		t.Errorf("line-end cost increased TVOF: %d -> %d", r.Without.TVOF, r.With.TVOF)
	}
	if r.Without.TVOF == 0 {
		t.Error("hard circuit produced no vertex overflow in the w/o arm; Table IV is vacuous")
	}
	// WL overhead should be small (paper: 1.5%).
	if float64(r.With.WL) > 1.10*float64(r.Without.WL) {
		t.Errorf("WL overhead too large: %d -> %d", r.Without.WL, r.With.WL)
	}
	var sb strings.Builder
	FprintTable4(&sb, rows)
	if !strings.Contains(sb.String(), "TVOF") {
		t.Error("Table IV output missing TVOF")
	}
}

func TestFig16Generates(t *testing.T) {
	if testing.Short() {
		t.Skip("routing experiment in -short mode")
	}
	var a, b strings.Builder
	spWithout, spWith, err := Fig16(&a, &b, "S9234")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.String(), "</svg>") || !strings.Contains(b.String(), "</svg>") {
		t.Error("Fig. 16 SVGs incomplete")
	}
	if spWith >= spWithout {
		t.Errorf("Fig. 16 inversion: with %d >= without %d", spWith, spWithout)
	}
}

func TestCircuitLists(t *testing.T) {
	if len(AllCircuits()) != 14 {
		t.Errorf("AllCircuits = %d, want 14", len(AllCircuits()))
	}
	if len(HardCircuits()) != 6 {
		t.Errorf("HardCircuits = %d, want 6", len(HardCircuits()))
	}
	for _, name := range SmallCircuits() {
		if _, err := bench.ByName(name); err != nil {
			t.Errorf("small circuit %s unknown", name)
		}
	}
	if !ILPSkip()["S38584"] {
		t.Error("S38584 should be ILP-skipped")
	}
}

func TestTable7BadEndContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("routing experiment in -short mode")
	}
	rows, err := Table7([]string{"S9234"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The stitch-aware assignments must leave far fewer bad ends than the
	// conventional one (the paper's >97% reduction, measured at the stage
	// boundary).
	if r.Conv.BadEnds == 0 {
		t.Fatal("conventional produced no bad ends; contrast vacuous")
	}
	if r.Graph.BadEnds*3 > r.Conv.BadEnds {
		t.Errorf("graph bad ends %d not well below conventional %d", r.Graph.BadEnds, r.Conv.BadEnds)
	}
	if !r.ILPSkipped && r.ILP.BadEnds > r.Graph.BadEnds {
		t.Errorf("ILP bad ends %d above graph %d", r.ILP.BadEnds, r.Graph.BadEnds)
	}
	var sb strings.Builder
	FprintTable7(&sb, rows)
	if !strings.Contains(sb.String(), "#BE") {
		t.Error("Table VII output missing #BE column")
	}
}

func TestTable6GapShape(t *testing.T) {
	rows := Table6Gap(7, 8, 8, 12, 2_000_000)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Completed == 0 {
			t.Fatalf("k=%d: no instances solved to optimality", r.K)
		}
		if r.Ours < r.Exact || r.MST < r.Exact {
			t.Errorf("k=%d: heuristic below optimum (%f, %f vs %f)", r.K, r.Ours, r.MST, r.Exact)
		}
		// The paper's algorithm stays near-optimal; MST drifts.
		if r.OursGapPercent > 25 {
			t.Errorf("k=%d: ours gap %.1f%% too large", r.K, r.OursGapPercent)
		}
	}
	var sb strings.Builder
	FprintTable6Gap(&sb, rows)
	if !strings.Contains(sb.String(), "gap") {
		t.Error("missing header")
	}
}

package main

import (
	"path/filepath"
	"slices"
	"testing"

	"stitchroute/internal/core"
	"stitchroute/internal/harness"
)

// goldenDir holds the harness goldens.
var goldenDir = filepath.Join("..", "..", "internal", "harness", "testdata", "golden")

// TestMeasurePrimary1 measures Primary1 once through every stage and
// checks the record against the pinned results: the quality record and
// routes hash of the stitch-aware golden, the write-prep golden, both
// ECO gates and the stage list.
func TestMeasurePrimary1(t *testing.T) {
	rec, err := measure("Primary1", 1)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := harness.ReadGolden[harness.Metrics](filepath.Join(goldenDir, "Primary1.json"))
	if err != nil {
		t.Fatal(err)
	}
	j := slices.IndexFunc(routed, func(m harness.Metrics) bool { return m.Mode == "stitch" })
	if j < 0 {
		t.Fatal("Primary1 golden has no stitch entry")
	}
	if rec.RoutesHash != routed[j].RoutesHash {
		t.Errorf("routes hash %.12s, want %.12s", rec.RoutesHash, routed[j].RoutesHash)
	}
	for _, bad := range harness.Compare(rec.Quality, routed[j].Quality) {
		t.Errorf("quality: %s", bad)
	}

	goldens, err := harness.ReadGolden[harness.FractureMetrics](filepath.Join(goldenDir, "fracture.json"))
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(goldens, func(m harness.FractureMetrics) bool { return m.Circuit == "Primary1" })
	if i < 0 {
		t.Fatal("fracture golden has no Primary1 entry")
	}
	for _, bad := range harness.Compare(rec.WritePrep, goldens[i]) {
		t.Errorf("write-prep: %s", bad)
	}

	if !rec.ECO.ReplayHashEqual || !rec.ECO.PatchDeterministic {
		t.Errorf("eco gates: replayHashEqual %v, patchDeterministic %v",
			rec.ECO.ReplayHashEqual, rec.ECO.PatchDeterministic)
	}
	if len(rec.ECO.Edits) != len(ecoEditIndices) {
		t.Errorf("%d edits measured, want %d", len(rec.ECO.Edits), len(ecoEditIndices))
	}

	var want, got []string
	for _, st := range (core.StageTimes{}).Stages() {
		want = append(want, st.Name)
	}
	want = append(want, "fractureRect", "fractureLShape", "stencil", "ecoCold", "ecoReplay", "ecoPatch")
	for _, st := range rec.StageMs {
		got = append(got, st.Stage)
		if st.Ms <= 0 {
			t.Errorf("stage %s: %v ms, want > 0", st.Stage, st.Ms)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("stages %v, want %v", got, want)
	}
}

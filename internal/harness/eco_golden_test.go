package harness

import (
	"os"
	"path/filepath"
	"testing"

	"stitchroute/internal/core"
)

func ecoGoldenPath() string {
	return filepath.Join("testdata", "golden", "eco.json")
}

// TestECOGolden is the incremental-rerouting regression gate: each
// golden benchmark is routed, forked through both ECO engines under the
// canonical golden edit script, and the hashes and reuse counters must
// match the committed snapshot exactly. It also pins the equivalence
// guarantee (replay hash == cold hash) as a structural invariant.
// Refresh every pinned snapshot with make repin.
func TestECOGolden(t *testing.T) {
	var got []ECOMetrics
	for _, name := range goldenBenchmarks {
		fresh := benchCircuit(t, name)
		m, err := CollectECO(fresh, core.StitchAware())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.ReplayHash != m.ColdHash {
			t.Errorf("%s: replay hash %.12s != cold hash %.12s", name, m.ReplayHash, m.ColdHash)
		}
		got = append(got, m)
	}
	if *update {
		if err := UpdateGolden(os.Stdout, ecoGoldenPath(), got, func(m ECOMetrics) string { return m.Circuit }); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := ReadGolden[ECOMetrics](ecoGoldenPath())
	if err != nil {
		t.Fatalf("missing eco golden file (run make repin to create): %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("eco golden has %d entries, want %d", len(want), len(got))
	}
	for i := range got {
		for _, bad := range CompareECO(got[i], want[i]) {
			t.Errorf("%s: %s", got[i].Circuit, bad)
		}
	}
}

package harness

import (
	"testing"

	"stitchroute/internal/core"
	"stitchroute/internal/netlist"
)

// TestECODifferential is the ECO equivalence battery the acceptance
// gate requires: >= 50 seeded (circuit, edit script) pairs, each
// asserting that the replay-mode ECO result is byte-for-byte the cold
// reroute of the edited circuit, that the patch-mode result passes the
// full DRC battery without losing routability and carries the report a
// full check of its routes gives, and that both engines
// are byte-identical across repeated runs. Short mode runs a subset.
func TestECODifferential(t *testing.T) {
	specs := ShortGrid()
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	if testing.Short() {
		seeds = seeds[:3]
	}
	pairs := 0
	for _, spec := range specs {
		for _, seed := range seeds {
			spec := spec
			spec.Seed = seed
			seed := seed
			pairs++
			t.Run(spec.String(), func(t *testing.T) {
				t.Parallel()
				fresh := func() *netlist.Circuit { return Generate(spec) }
				script := GenEdits(fresh(), seed*31+7, 2+int(seed%5))
				o, err := VerifyECO(spec.String(), fresh, script, core.StitchAware())
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range o.Violations {
					t.Error(v)
				}
				if t.Failed() {
					t.Logf("script: %+v", script.Edits)
					t.Logf("cold hash %s, replay hash %s, patch hash %s",
						o.Cold.RoutesHash[:12], o.Replay.RoutesHash[:12], o.Patch.RoutesHash[:12])
					t.Logf("replay stats %+v, patch stats %+v", o.ReplayStats, o.PatchStats)
				}
			})
		}
	}
	if !testing.Short() && pairs < 50 {
		t.Fatalf("differential battery covers %d pairs, want >= 50", pairs)
	}
}

package harness

import (
	"fmt"
	"strings"

	"stitchroute/internal/core"
	"stitchroute/internal/netlist"
)

// ECOGoldenSeed drives the canonical edit script the ECO golden gate
// derives for each golden benchmark via GenEdits — the script itself is
// deterministic, so only the seed and edit count need pinning here.
// (cmd/benchjson times its own single-pin moves instead.)
const (
	ECOGoldenSeed  = 42
	ECOGoldenEdits = 3
)

// ECOMetrics is the per-benchmark incremental-rerouting snapshot
// committed to the ECO golden file. Both ECO engines are deterministic
// over a committed parent and script, so these compare exactly — any
// drift is a real behavior change.
type ECOMetrics struct {
	Circuit string `json:"circuit"`
	Edits   int    `json:"edits"`
	// ColdHash is the canonical routes hash of the edited circuit
	// routed from scratch; ReplayHash must equal it byte-for-byte (the
	// equivalence guarantee), PatchHash generally differs.
	ColdHash   string `json:"coldHash"`
	ReplayHash string `json:"replayHash"`
	PatchHash  string `json:"patchHash"`
	// Reuse counters: how many detail searches each engine avoided.
	ReplayDetailReused int `json:"replayDetailReused"`
	ReplayDetailRouted int `json:"replayDetailRouted"`
	PatchDetailReused  int `json:"patchDetailReused"`
	PatchDetailRouted  int `json:"patchDetailRouted"`
	// Patch is the patch result's quality record for the edited circuit.
	Patch core.Quality `json:"patch"`
}

// CollectECO runs the ECO differential battery (VerifyECO) under the
// canonical golden script and extracts the golden metrics from its
// outcome. A violated property is an error. The factory must return a
// structurally identical circuit on every call.
func CollectECO(fresh func() *netlist.Circuit, cfg core.Config) (ECOMetrics, error) {
	pc := fresh()
	script := GenEdits(pc, ECOGoldenSeed, ECOGoldenEdits)
	m := ECOMetrics{Circuit: pc.Name, Edits: len(script.Edits)}
	o, err := VerifyECO(pc.Name, fresh, script, cfg)
	if err != nil {
		return m, err
	}
	if !o.Ok() {
		return m, fmt.Errorf("%s: %s", m.Circuit, strings.Join(o.Violations, "; "))
	}
	m.ColdHash = o.Cold.RoutesHash
	m.ReplayHash = o.Replay.RoutesHash
	m.ReplayDetailReused = o.ReplayStats.DetailReused
	m.ReplayDetailRouted = o.ReplayStats.DetailRouted
	m.PatchHash = o.Patch.RoutesHash
	m.PatchDetailReused = o.PatchStats.DetailReused
	m.PatchDetailRouted = o.PatchStats.DetailRouted
	m.Patch = o.PatchQuality
	return m, nil
}

// CompareECO returns the mismatches between measured and golden ECO
// metrics (Compare), plus the structural invariants: the replay hash
// equals the cold hash, and the patch reuses most of the parent result.
func CompareECO(got, want ECOMetrics) []string {
	bad := Compare(got, want)
	if got.ReplayHash != got.ColdHash {
		bad = append(bad, fmt.Sprintf("replay is not byte-identical to the cold reroute: %.12s vs %.12s",
			got.ReplayHash, got.ColdHash))
	}
	if got.PatchDetailReused <= got.PatchDetailRouted {
		bad = append(bad, fmt.Sprintf("patch rerouted more nets (%d) than it grafted (%d) on a %d-edit script",
			got.PatchDetailRouted, got.PatchDetailReused, got.Edits))
	}
	return bad
}

package harness

import (
	"fmt"

	"stitchroute/internal/core"
	"stitchroute/internal/eco"
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
	// Patch-result quality metrics for the edited circuit.
	PatchWirelength    int64 `json:"patchWirelength"`
	PatchShortPolygons int   `json:"patchShortPolygons"`
	PatchFailedNets    int   `json:"patchFailedNets"`
}

// CollectECO routes the circuit cold, forks it through both ECO
// engines under the canonical golden script, and extracts the golden
// metrics. The factory must return a structurally identical circuit on
// every call.
func CollectECO(fresh func() *netlist.Circuit, cfg core.Config) (ECOMetrics, error) {
	pc := fresh()
	script := GenEdits(pc, ECOGoldenSeed, ECOGoldenEdits)
	m := ECOMetrics{Circuit: pc.Name, Edits: len(script.Edits)}

	parent, err := core.Route(pc, cfg)
	if err != nil {
		return m, fmt.Errorf("%s: parent route: %w", m.Circuit, err)
	}
	edited, err := script.Apply(fresh())
	if err != nil {
		return m, fmt.Errorf("%s: apply: %w", m.Circuit, err)
	}
	cold, err := core.Route(edited, cfg)
	if err != nil {
		return m, fmt.Errorf("%s: cold route: %w", m.Circuit, err)
	}
	cc, err := Check(edited, cold)
	if err != nil {
		return m, err
	}
	m.ColdHash = cc.RoutesHash

	er, err := eco.Reroute(parent, pc, script, cfg)
	if err != nil {
		return m, fmt.Errorf("%s: replay: %w", m.Circuit, err)
	}
	rc, err := Check(er.Edited, er.Result)
	if err != nil {
		return m, err
	}
	m.ReplayHash = rc.RoutesHash
	m.ReplayDetailReused = er.Stats.DetailReused
	m.ReplayDetailRouted = er.Stats.DetailRouted

	pr, err := eco.ReroutePatch(parent, pc, script, cfg)
	if err != nil {
		return m, fmt.Errorf("%s: patch: %w", m.Circuit, err)
	}
	pch, err := Check(pr.Edited, pr.Result)
	if err != nil {
		return m, err
	}
	if err := CheckReport(pr.Edited, pr.Result); err != nil {
		return m, fmt.Errorf("%s: patch: %w", m.Circuit, err)
	}
	m.PatchHash = pch.RoutesHash
	m.PatchDetailReused = pr.Stats.DetailReused
	m.PatchDetailRouted = pr.Stats.DetailRouted
	m.PatchWirelength = pch.Report.Wirelength
	m.PatchShortPolygons = pch.Report.ShortPolygons
	m.PatchFailedNets = pch.FailedNets
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

package harness

import (
	"encoding/json"
	"fmt"
	"os"

	"stitchroute/internal/core"
	"stitchroute/internal/eco"
	"stitchroute/internal/netlist"
)

// ECOGoldenSeed drives the canonical edit script the ECO golden gate
// (and cmd/benchjson -stage eco) derives for each golden benchmark via
// GenEdits — the script itself is deterministic, so only the seed and
// edit count need pinning here.
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
// metrics (exact comparison), plus the structural invariants: the
// replay hash equals the cold hash, and both engines reuse most of the
// parent result.
func CompareECO(got, want ECOMetrics) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if got.Circuit != want.Circuit {
		fail("identity mismatch: got %s, want %s", got.Circuit, want.Circuit)
		return bad
	}
	if got.Edits != want.Edits {
		fail("edit count %d, want %d", got.Edits, want.Edits)
	}
	if got.ColdHash != want.ColdHash {
		fail("cold hash %.12s, want %.12s (edited-circuit routing changed)", got.ColdHash, want.ColdHash)
	}
	if got.ReplayHash != want.ReplayHash {
		fail("replay hash %.12s, want %.12s", got.ReplayHash, want.ReplayHash)
	}
	if got.PatchHash != want.PatchHash {
		fail("patch hash %.12s, want %.12s (graft geometry changed)", got.PatchHash, want.PatchHash)
	}
	if got.ReplayDetailReused != want.ReplayDetailReused || got.ReplayDetailRouted != want.ReplayDetailRouted {
		fail("replay reuse %d/%d, want %d/%d", got.ReplayDetailReused, got.ReplayDetailRouted,
			want.ReplayDetailReused, want.ReplayDetailRouted)
	}
	if got.PatchDetailReused != want.PatchDetailReused || got.PatchDetailRouted != want.PatchDetailRouted {
		fail("patch reuse %d/%d, want %d/%d", got.PatchDetailReused, got.PatchDetailRouted,
			want.PatchDetailReused, want.PatchDetailRouted)
	}
	if got.PatchWirelength != want.PatchWirelength {
		fail("patch wirelength %d, want %d", got.PatchWirelength, want.PatchWirelength)
	}
	if got.PatchShortPolygons != want.PatchShortPolygons {
		fail("patch short polygons %d, want %d", got.PatchShortPolygons, want.PatchShortPolygons)
	}
	if got.PatchFailedNets != want.PatchFailedNets {
		fail("patch failed nets %d, want %d", got.PatchFailedNets, want.PatchFailedNets)
	}
	// Structural invariants, independent of the snapshot.
	if got.ReplayHash != got.ColdHash {
		fail("replay is not byte-identical to the cold reroute: %.12s vs %.12s", got.ReplayHash, got.ColdHash)
	}
	if got.PatchDetailReused <= got.PatchDetailRouted {
		fail("patch rerouted more nets (%d) than it grafted (%d) on a %d-edit script",
			got.PatchDetailRouted, got.PatchDetailReused, got.Edits)
	}
	return bad
}

// WriteECOGolden writes the ECO metrics as a deterministic,
// diff-friendly JSON file.
func WriteECOGolden(path string, ms []ECOMetrics) error {
	data, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadECOGolden loads the ECO golden file.
func ReadECOGolden(path string) ([]ECOMetrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms []ECOMetrics
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ms, nil
}

package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"

	"stitchroute/internal/core"
	"stitchroute/internal/drc"
	"stitchroute/internal/eco"
	"stitchroute/internal/geom"
	"stitchroute/internal/netlist"
)

// GenEdits builds a seeded random edit script that applies cleanly to
// the circuit: pin moves, wholesale net moves, deletions, additions, and
// the delete-then-re-add sequence the ECO engine must treat as a fresh
// net. Generation is deterministic in (circuit, seed, n). New pin
// locations avoid every location already in use (original or placed by
// an earlier edit) so the script never manufactures the coincident-pin
// shorts the hard DRC invariants would then blame on the router.
func GenEdits(c *netlist.Circuit, seed int64, n int) *eco.Script {
	rng := rand.New(rand.NewSource(seed ^ 0x0ec0ec0))
	f := c.Fabric
	used := make(map[geom.Point]bool)
	maxID := 0
	var ids []int
	pinCount := make(map[int]int, len(c.Nets))
	for _, nn := range c.Nets {
		ids = append(ids, nn.ID)
		pinCount[nn.ID] = len(nn.Pins)
		if nn.ID > maxID {
			maxID = nn.ID
		}
		for _, p := range nn.Pins {
			used[p.Point] = true
		}
	}
	freshPt := func() (int, int) {
		for {
			x, y := rng.Intn(f.XTracks), rng.Intn(f.YTracks)
			if !used[geom.Point{X: x, Y: y}] {
				used[geom.Point{X: x, Y: y}] = true
				return x, y
			}
		}
	}
	freshPins := func(k int) []eco.Pin {
		out := make([]eco.Pin, k)
		for i := range out {
			x, y := freshPt()
			out[i] = eco.Pin{X: x, Y: y, Layer: 1}
		}
		return out
	}
	pick := func() int { return ids[rng.Intn(len(ids))] }
	remove := func(id int) {
		for i, v := range ids {
			if v == id {
				ids = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		delete(pinCount, id)
	}

	var edits []eco.Edit
	for len(edits) < n {
		switch k := rng.Intn(12); {
		case k < 6 && len(ids) > 0: // move one pin
			id := pick()
			x, y := freshPt()
			edits = append(edits, eco.Edit{Op: eco.OpMovePin, ID: id, Pin: rng.Intn(pinCount[id]), X: x, Y: y})
		case k < 8 && len(ids) > 0: // replace a net's pins wholesale
			id := pick()
			np := 2 + rng.Intn(2)
			edits = append(edits, eco.Edit{Op: eco.OpMove, ID: id, Pins: freshPins(np)})
			pinCount[id] = np
		case k < 9 && len(ids) > 2: // delete
			id := pick()
			edits = append(edits, eco.Edit{Op: eco.OpDelete, ID: id})
			remove(id)
		case k == 11 && len(ids) > 2: // delete then re-add the same ID
			id := pick()
			np := 2 + rng.Intn(2)
			edits = append(edits,
				eco.Edit{Op: eco.OpDelete, ID: id},
				eco.Edit{Op: eco.OpAdd, ID: id, Pins: freshPins(np)})
			pinCount[id] = np
		default: // add a brand-new net
			maxID++
			np := 2 + rng.Intn(3)
			edits = append(edits, eco.Edit{Op: eco.OpAdd, ID: maxID, Pins: freshPins(np)})
			ids = append(ids, maxID)
			pinCount[maxID] = np
		}
	}
	return &eco.Script{Edits: edits}
}

// CheckReport returns an error unless the result's DRC report and
// short-polygon slots equal a full check of its routes on c. A patch
// updates its parent's report instead of checking the chip
// (drc.Update); this is the full check it must agree with.
func CheckReport(c *netlist.Circuit, res *core.Result) error {
	rep, slots := drc.CheckSlots(c, res.Routes)
	if !reflect.DeepEqual(res.Report, rep) {
		got, want := res.Report, rep
		got.SPSites, want.SPSites = nil, nil
		return fmt.Errorf("report differs from a full check: %+v with %d sites, want %+v with %d sites",
			got, len(res.Report.SPSites), want, len(rep.SPSites))
	}
	if !slices.Equal(res.SPSlots, slots) {
		return fmt.Errorf("short-polygon slots %v, full check %v", res.SPSlots, slots)
	}
	return nil
}

// ECOOutcome is the verdict of VerifyECO for one (circuit, edit script)
// pair: the cold reroute of the edited circuit, both ECO engines'
// results, and every violated property.
type ECOOutcome struct {
	Name   string
	Cold   CheckResult
	Replay CheckResult
	Patch  CheckResult
	// PatchQuality is the patch result's own quality record.
	PatchQuality core.Quality
	ReplayStats  eco.Stats
	PatchStats   eco.Stats
	Violations   []string
}

// Ok reports whether the differential battery passed.
func (o *ECOOutcome) Ok() bool { return len(o.Violations) == 0 }

// VerifyECO runs the ECO differential battery on one (circuit, script)
// pair: route the circuit cold, fork it through both incremental
// engines, and assert
//
//   - replay equivalence — the replay-mode ECO result is byte-for-byte
//     the cold reroute of the edited circuit (routes hash), passes the
//     full hard-invariant DRC battery, and is byte-identical across
//     repeated ECO runs (determinism);
//   - patch soundness — the patch-mode ECO result passes the same hard
//     battery, carries the report a full DRC check of its routes gives,
//     is byte-identical across repeated runs, and dominates or
//     matches the cold reroute on routability (no net the cold route
//     connects may be lost to the graft beyond the slack the edit's own
//     nets introduce);
//   - both engines actually reuse the parent: a fallback to a cold
//     route is reported as a violation, because it would make the
//     differential vacuous.
//
// The factory must return a structurally identical circuit on every
// call, like Verify's.
func VerifyECO(name string, fresh func() *netlist.Circuit, script *eco.Script, cfg core.Config) (*ECOOutcome, error) {
	o := &ECOOutcome{Name: name}
	reject := func(context string, v []string) {
		for _, s := range v {
			o.Violations = append(o.Violations, context+": "+s)
		}
	}

	// Parent: the committed route the ECO engines fork from.
	pc := fresh()
	parent, err := core.Route(pc, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: parent route: %w", name, err)
	}

	// Cold reference: the edited circuit routed from scratch.
	edited, err := script.Apply(fresh())
	if err != nil {
		return nil, fmt.Errorf("%s: apply script: %w", name, err)
	}
	cold, err := core.Route(edited, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: cold route: %w", name, err)
	}
	if o.Cold, err = Check(edited, cold); err != nil {
		return nil, fmt.Errorf("%s: cold check: %w", name, err)
	}
	reject("cold", o.Cold.HardViolations())

	// Replay engine: must equal the cold route byte-for-byte.
	r1, err := eco.Reroute(parent, pc, script, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: replay reroute: %w", name, err)
	}
	o.ReplayStats = r1.Stats
	if o.Replay, err = Check(r1.Edited, r1.Result); err != nil {
		return nil, fmt.Errorf("%s: replay check: %w", name, err)
	}
	reject("replay", o.Replay.HardViolations())
	if o.Replay.RoutesHash != o.Cold.RoutesHash {
		o.Violations = append(o.Violations, fmt.Sprintf(
			"replay diverged from cold reroute: %s vs %s",
			o.Replay.RoutesHash[:12], o.Cold.RoutesHash[:12]))
	}
	if r1.Stats.Fallback {
		o.Violations = append(o.Violations, "replay fell back to a cold route (no reuse — differential is vacuous)")
	}
	r2, err := eco.Reroute(parent, pc, script, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: replay determinism reroute: %w", name, err)
	}
	h2, err := Check(r2.Edited, r2.Result)
	if err != nil {
		return nil, fmt.Errorf("%s: replay determinism check: %w", name, err)
	}
	if h2.RoutesHash != o.Replay.RoutesHash {
		o.Violations = append(o.Violations, fmt.Sprintf(
			"replay nondeterministic: %s vs %s", o.Replay.RoutesHash[:12], h2.RoutesHash[:12]))
	}

	// Patch engine: deterministic, DRC-clean, and no routability loss
	// beyond the edited nets themselves (an edit can genuinely make a
	// net unroutable; untouched nets must not get lost to the graft).
	p1, err := eco.ReroutePatch(parent, pc, script, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: patch reroute: %w", name, err)
	}
	o.PatchStats, o.PatchQuality = p1.Stats, p1.Result.Quality()
	if o.Patch, err = Check(p1.Edited, p1.Result); err != nil {
		return nil, fmt.Errorf("%s: patch check: %w", name, err)
	}
	reject("patch", o.Patch.HardViolations())
	if err := CheckReport(p1.Edited, p1.Result); err != nil {
		o.Violations = append(o.Violations, "patch: "+err.Error())
	}
	if p1.Stats.Fallback {
		o.Violations = append(o.Violations, "patch fell back to a cold route (no reuse — differential is vacuous)")
	}
	if slack := len(script.DirtyIDs()); o.Patch.FailedNets > o.Cold.FailedNets+slack {
		o.Violations = append(o.Violations, fmt.Sprintf(
			"patch lost routability: %d failed nets vs %d cold (+%d edit slack)",
			o.Patch.FailedNets, o.Cold.FailedNets, slack))
	}
	p2, err := eco.ReroutePatch(parent, pc, script, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: patch determinism reroute: %w", name, err)
	}
	ph2, err := Check(p2.Edited, p2.Result)
	if err != nil {
		return nil, fmt.Errorf("%s: patch determinism check: %w", name, err)
	}
	if !reflect.DeepEqual(p2.Report, p1.Report) {
		o.Violations = append(o.Violations, "patch report nondeterministic")
	}
	if ph2.RoutesHash != o.Patch.RoutesHash {
		o.Violations = append(o.Violations, fmt.Sprintf(
			"patch nondeterministic: %s vs %s", o.Patch.RoutesHash[:12], ph2.RoutesHash[:12]))
	}
	return o, nil
}

package eco

import (
	"context"

	"stitchroute/internal/core"
	"stitchroute/internal/detail"
	"stitchroute/internal/drc"
	"stitchroute/internal/geom"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// PatchMargin is the retry margin, in grid cells, added around the
// edited nets' committed routes when computing the dirty region for
// patch-mode rerouting. Kept nets whose routes intersect the inflated
// region are ripped up alongside the edited nets so the graft has room
// to move neighbours out of the way.
const PatchMargin = 8

// canPatch reports whether the parent result carries enough committed
// state for a graft: one route and one freed-pin record per parent net.
// Patch mode does not replay searches, so unlike canMemo it needs no
// recorded read-sets, no global trace, and no config match.
func canPatch(parent *core.Result, pc *netlist.Circuit) bool {
	return parent != nil && parent.ECO != nil &&
		len(parent.Routes) == len(pc.Nets) &&
		len(parent.Plans) == len(pc.Nets) &&
		len(parent.ECO.FreedPins) == len(pc.Nets)
}

// ReroutePatch is ReroutePatchContext with a background context.
func ReroutePatch(parent *core.Result, pc *netlist.Circuit, s *Script, cfg core.Config) (*Result, error) {
	return ReroutePatchContext(context.Background(), parent, pc, s, cfg)
}

// ReroutePatchContext applies the edit script and grafts the re-routed
// dirty nets onto the parent's committed grid instead of re-executing
// the pipeline. The dirty set is the edited nets plus every kept net
// whose committed route intersects the edited nets' old routes and new
// pins inflated by PatchMargin; everything else keeps its parent route
// byte-for-byte. The cost therefore scales with the edit, not the
// circuit: the DRC report, too, is the parent's updated by the dirty
// nets (drc.Update), and equals a full check of the patched routes.
// The result is deterministic (same parent + same script => same
// result), but it is NOT byte-identical to a cold reroute of the edited
// circuit — use Reroute for the provably-equivalent (and slower)
// replay. Global-stage metrics and plans are carried over from the
// parent; edited nets route from their pins without a global plan.
func ReroutePatchContext(ctx context.Context, parent *core.Result, pc *netlist.Circuit, s *Script, cfg core.Config) (*Result, error) {
	edited, err := s.Apply(pc)
	if err != nil {
		return nil, err
	}
	editedIDs := s.DirtyIDs()

	if !canPatch(parent, pc) {
		return coldReroute(ctx, edited, cfg, len(editedIDs))
	}

	// Dirty region: the edited nets' committed geometry and old pin
	// positions (the space they vacate) plus their new pin positions
	// (the space they must newly reach), inflated by the retry margin.
	margin := s.Margin
	if margin <= 0 {
		margin = PatchMargin
	}
	var region []geom.Rect
	box := geom.Rect{X0: 1, Y0: 1} // region's bounding box; starts empty
	addRect := func(rc geom.Rect) {
		rc = rc.Expand(margin)
		box = box.Union(rc)
		region = append(region, rc)
	}
	for i, n := range pc.Nets {
		if !editedIDs[n.ID] {
			continue
		}
		for _, w := range parent.Routes[i].Wires {
			addRect(w.Bounds())
		}
		for _, p := range n.Pins {
			addRect(geom.Rect{X0: p.X, Y0: p.Y, X1: p.X, Y1: p.Y})
		}
	}
	for _, n := range edited.Nets {
		if !editedIDs[n.ID] {
			continue
		}
		for _, p := range n.Pins {
			addRect(geom.Rect{X0: p.X, Y0: p.Y, X1: p.X, Y1: p.Y})
		}
	}
	intersects := func(rc geom.Rect) bool {
		if !box.Overlaps(rc) {
			return false
		}
		for _, rg := range region {
			if rg.Overlaps(rc) {
				return true
			}
		}
		return false
	}

	// Rip up the edited nets plus every kept net whose committed route
	// crosses the region. Parent-failed nets have no route to cross it;
	// they are retried only when edited (their pins moved). The patch
	// is indexed by the edited circuit's slots. Apply keeps unedited
	// nets in their parent order, so one forward walk over the parent's
	// slots finds each one's parent slot.
	n := len(edited.Nets)
	patch := &detail.Patch{
		Dirty:     make([]bool, n),
		Keep:      make([]plan.NetRoute, n),
		FreedPins: make([][]detail.Cell, n),
	}
	plans := make([]*plan.NetPlan, n)
	// kept maps each grafted slot to its parent slot, -1 elsewhere: the
	// DRC update re-checks only the other slots.
	kept := make([]int, n)
	pi := 0
	for i, net := range edited.Nets {
		id := net.ID
		kept[i] = -1
		if editedIDs[id] {
			// Edited nets have no plan and route from pins alone.
			patch.Dirty[i] = true
			continue
		}
		for pc.Nets[pi].ID != id {
			pi++
		}
		// Kept and ripped-neighbour nets reuse their parent plan (their
		// pins are unchanged, so the plan is still valid guidance).
		plans[i] = parent.Plans[pi]
		hit := false
		for _, w := range parent.Routes[pi].Wires {
			if intersects(w.Bounds()) {
				hit = true
				break
			}
		}
		if hit {
			patch.Dirty[i] = true
			continue
		}
		patch.Keep[i] = parent.Routes[pi]
		patch.FreedPins[i] = parent.ECO.FreedPins[pi]
		kept[i] = pi
	}

	// Global-stage metrics describe the carried-over plans.
	res := &core.Result{
		Plans:        plans,
		TVOF:         parent.TVOF,
		MVOF:         parent.MVOF,
		GlobalWL:     parent.GlobalWL,
		EdgeOverflow: parent.EdgeOverflow,
		TrackStats:   parent.TrackStats,
	}
	st := Stats{EditedNets: len(editedIDs), GlobalReused: len(edited.Nets)}
	base := drc.Base{Circuit: pc, Routes: parent.Routes, Report: parent.Report, SPSlots: parent.SPSlots}
	dres, err := res.RouteDetail(ctx, edited, cfg.Detail, core.Passes{
		Detail: func(ctx context.Context, dr *detail.Router, c *netlist.Circuit, plans []*plan.NetPlan) (*detail.Result, error) {
			dres, grafted, err := dr.RunPatch(ctx, c, plans, patch)
			st.DetailReused, st.DetailRouted = grafted, len(c.Nets)-grafted
			return dres, err
		},
		// A grafted net keeps its parent route and pins, so its share
		// of the report is the parent's.
		Check: func(c *netlist.Circuit, routes []plan.NetRoute) (drc.Report, []int) {
			return drc.Update(base, c, routes, kept)
		},
	})
	if err != nil {
		return nil, err
	}
	// A patch result carries enough state for further patches (routes +
	// freed pins) but no replay recording: chaining a strict Reroute off
	// it falls back to a cold route.
	res.ECO = &core.ECOState{
		Cfg:       cfg,
		FreedPins: dres.FreedPins,
	}
	return &Result{Result: res, Edited: edited, Stats: st}, nil
}

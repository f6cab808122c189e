package eco

import (
	"context"

	"stitchroute/internal/core"
	"stitchroute/internal/detail"
	"stitchroute/internal/global"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// Stats summarizes how much of the parent result a delta reroute
// replayed versus recomputed.
type Stats struct {
	// Fallback is true when the reroute could not use the parent's
	// recording (missing ECO state or a different config) and ran a
	// plain cold route instead.
	Fallback bool
	// EditedNets is the number of distinct net IDs the script touched.
	EditedNets int
	// Global stage: nets replayed from the recorded trace vs searched.
	GlobalReused, GlobalRouted int
	// Detail stage: nets replayed from the recorded geometry vs searched.
	DetailReused, DetailRouted int
}

// Result is a delta reroute's outcome: a full routing result for the
// edited circuit (carrying its own ECO recording, so reroutes chain),
// the edited circuit itself, and the replay statistics.
type Result struct {
	*core.Result
	Edited *netlist.Circuit
	Stats  Stats
}

// canMemo reports whether the parent result carries a usable recording
// for this config.
func canMemo(parent *core.Result, pc *netlist.Circuit, cfg core.Config) bool {
	return parent != nil && parent.ECO != nil && parent.ECO.Global != nil &&
		parent.ECO.Cfg == cfg &&
		len(parent.ECO.Global.Nets) == len(pc.Nets) &&
		len(parent.Routes) == len(pc.Nets) &&
		len(parent.Plans) == len(pc.Nets) &&
		parent.ECO.Complete(len(pc.Nets))
}

// Reroute applies the edit script to the parent circuit and reroutes the
// edited circuit incrementally against the parent result's recording.
func Reroute(parent *core.Result, pc *netlist.Circuit, s *Script, cfg core.Config) (*Result, error) {
	return RerouteContext(context.Background(), parent, pc, s, cfg)
}

// RerouteContext is Reroute with cancellation (same granularity as
// core.RouteContext: stage boundaries and per-net loop checks).
//
// The reroute re-executes the deterministic pipeline on the edited
// circuit, skipping exactly the searches whose recorded read-sets are
// provably unaffected by the edit (see global.RouteAllMemo and
// detail.RunMemo for the two dirty-region arguments). Layer and track
// assignment are pure deterministic functions of the circuit and the
// global plans, and refinement runs live, so the returned result is
// byte-for-byte identical to core.RouteContext on the edited circuit —
// same routes, same plans, same DRC report. Only the search-count
// telemetry (DetailConnects/DetailExpansions) reflects the searches
// actually run.
func RerouteContext(ctx context.Context, parent *core.Result, pc *netlist.Circuit, s *Script, cfg core.Config) (*Result, error) {
	edited, err := s.Apply(pc)
	if err != nil {
		return nil, err
	}
	ids := s.DirtyIDs()

	if !canMemo(parent, pc, cfg) {
		return coldReroute(ctx, edited, cfg, len(ids))
	}

	// Global: memoized first pass, live refinement. After the memoized
	// pass the demand and history state equal a cold run's exactly, so
	// running refinement verbatim keeps the output identical (on
	// converged circuits it early-exits immediately). Layer and track
	// assignment are recomputed in full: they are pure deterministic
	// functions of the circuit and the plans, and on the measured goldens
	// they cost ~1% of a cold route. Detail replays against the parent
	// recording through the same match, with every net whose fully
	// assigned plan changed unmatched too (layer/track cascades stay
	// inside shared panels, and the plan comparison catches exactly
	// them); parent failures replay or re-search on their own footprints
	// (see detail.Memo).
	from := match(pc, edited, ids)
	st := Stats{EditedNets: len(ids)}
	res, err := core.RoutePasses(ctx, edited, cfg, core.Passes{
		Global: func(ctx context.Context, gr *global.Router, c *netlist.Circuit) ([]*plan.NetPlan, error) {
			plans, reused, err := gr.RouteAllMemo(ctx, c, parent.ECO.Global, from)
			st.GlobalReused, st.GlobalRouted = reused, len(c.Nets)-reused
			return plans, err
		},
		Detail: func(ctx context.Context, dr *detail.Router, c *netlist.Circuit, plans []*plan.NetPlan) (*detail.Result, error) {
			// The global pass is done with from, so it is narrowed in
			// place.
			for i, ps := range from {
				if ps >= 0 && !parent.Plans[ps].Equal(plans[i]) {
					from[i] = -1
				}
			}
			memo := &detail.Memo{From: from, Routes: parent.Routes, Recording: parent.ECO.Recording}
			dres, reused, err := dr.RunMemo(ctx, c, plans, memo)
			st.DetailReused, st.DetailRouted = reused, len(c.Nets)-reused
			return dres, err
		},
	})
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Edited: edited, Stats: st}, nil
}

// coldReroute is the fallback of both engines when the parent result
// cannot seed them: a plain cold route of the edited circuit.
func coldReroute(ctx context.Context, edited *netlist.Circuit, cfg core.Config, editedNets int) (*Result, error) {
	cold, err := core.RouteContext(ctx, edited, cfg)
	if err != nil {
		return nil, err
	}
	n := len(edited.Nets)
	return &Result{Result: cold, Edited: edited,
		Stats: Stats{Fallback: true, EditedNets: editedNets, GlobalRouted: n, DetailRouted: n}}, nil
}

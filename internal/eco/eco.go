package eco

import (
	"context"
	"fmt"
	"time"

	"stitchroute/internal/core"
	"stitchroute/internal/detail"
	"stitchroute/internal/drc"
	"stitchroute/internal/geom"
	"stitchroute/internal/global"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// Stats summarizes how much of the parent result a delta reroute
// replayed versus recomputed.
type Stats struct {
	// Fallback is true when the reroute could not use the parent's
	// recording (missing ECO state, different config, negotiation or
	// pattern routing enabled) and ran a plain cold route instead.
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

// cancelErr mirrors core's cancellation wrapping so callers can use
// errors.Is(err, core.ErrCancelled) uniformly.
func cancelErr(err error) error {
	return fmt.Errorf("eco: %w: %w", core.ErrCancelled, err)
}

// canMemo reports whether the parent result carries a usable recording
// for this config. Negotiation is excluded because a negotiating net
// re-records other nets' routes without refreshing their rip-up state;
// pattern routing because the global trace cannot cover its reads.
func canMemo(parent *core.Result, pc *netlist.Circuit, cfg core.Config) bool {
	return parent != nil && parent.ECO != nil && parent.ECO.Global != nil &&
		parent.ECO.Cfg == cfg &&
		!cfg.Detail.Negotiate && !cfg.Global.Pattern &&
		len(parent.Routes) == len(pc.Nets) &&
		len(parent.Plans) == len(pc.Nets) &&
		parent.ECO.Acts.Len() == len(pc.Nets) &&
		parent.ECO.WActs.Len() == len(pc.Nets) &&
		len(parent.ECO.Ripped) == len(pc.Nets) &&
		len(parent.ECO.FreedPins) == len(pc.Nets) &&
		len(parent.ECO.MatWires) == len(pc.Nets)
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
	dirty := s.DirtyIDs()

	if !canMemo(parent, pc, cfg) {
		cold, err := core.RouteContext(ctx, edited, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Result: cold, Edited: edited,
			Stats: Stats{Fallback: true, EditedNets: len(dirty), GlobalRouted: len(edited.Nets), DetailRouted: len(edited.Nets)}}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, cancelErr(err)
	}

	f := edited.Fabric
	res := &core.Result{}
	st := Stats{EditedNets: len(dirty)}

	// Stage 1: global routing — memoized first pass, live refinement.
	// After the memoized pass the demand and history state equal a cold
	// run's exactly, so running refinement verbatim keeps the output
	// identical (on converged circuits it early-exits immediately).
	t0 := time.Now()
	gr := global.NewRouter(f, cfg.Global)
	plans, gReused, err := gr.RouteAllMemo(ctx, edited, parent.ECO.Global, dirty)
	if err != nil {
		return nil, cancelErr(err)
	}
	if err := gr.RefineContext(ctx, edited, plans, cfg.RefinePasses); err != nil {
		return nil, cancelErr(err)
	}
	res.Plans = plans
	res.TVOF, res.MVOF = gr.Overflow()
	res.GlobalWL = gr.Wirelength()
	res.EdgeOverflow = gr.EdgeOverflow()
	res.Times.Global = time.Since(t0)
	st.GlobalReused = gReused
	st.GlobalRouted = len(edited.Nets) - gReused

	// Stage 2: layer and track assignment, recomputed in full — they are
	// pure deterministic functions of the circuit and the plans, and on
	// the measured goldens they cost ~1% of a cold route.
	t0 = time.Now()
	core.AssignLayers(edited, plans, cfg.LayerAlgo)
	res.Times.Layer = time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, cancelErr(err)
	}
	t0 = time.Now()
	res.TrackStats, res.RowRipped = core.AssignTracks(edited, plans, cfg.TrackAlgo)
	res.Times.Track = time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, cancelErr(err)
	}

	// Stage 3: detailed routing against the parent recording. The detail
	// dirty set is the edited nets plus every net whose fully assigned
	// plan changed (layer/track cascades stay inside shared panels, and
	// the plan comparison catches exactly them); parent failures replay
	// or re-search on their own footprints (see detail.Memo).
	t0 = time.Now()
	memo := buildDetailMemo(parent, pc, edited, plans, dirty)
	dr := detail.NewRouter(f, cfg.Detail)
	dres, dReused, err := dr.RunMemo(ctx, edited, plans, memo)
	if err != nil {
		return nil, cancelErr(err)
	}
	res.Routes = dres.Routes
	res.RippedNets = dres.Ripped
	res.FailedNets = dres.Failed
	res.DetailConnects = dres.Connects
	res.DetailExpansions = dres.Expansions
	res.Times.Detail = time.Since(t0)
	st.DetailReused = dReused
	st.DetailRouted = len(edited.Nets) - dReused

	res.Report = drc.Check(edited, res.Routes)
	if gt := gr.Trace(); gt != nil {
		res.ECO = &core.ECOState{
			Cfg:       cfg,
			Global:    gt,
			Acts:      core.PackFootprints(dres.Acts),
			WActs:     core.PackFootprints(dres.WActs),
			Ripped:    dres.NetRipped,
			FreedPins: dres.FreedPins,
			MatWires:  dres.MatWires,
		}
	}
	return &Result{Result: res, Edited: edited, Stats: st}, nil
}

// buildDetailMemo rekeys the parent recording by net ID, unpacking its
// footprints, and computes the detail-stage dirty set and its seed rects.
func buildDetailMemo(parent *core.Result, pc, edited *netlist.Circuit, plans []*plan.NetPlan, dirty map[int]bool) *detail.Memo {
	m := &detail.Memo{
		Dirty:     make(map[int]bool, len(dirty)),
		Acts:      make(map[int][]uint64, len(pc.Nets)),
		WActs:     make(map[int][]uint64, len(pc.Nets)),
		Routes:    make(map[int]plan.NetRoute, len(pc.Nets)),
		Ripped:    make(map[int]bool, len(pc.Nets)),
		FreedPins: make(map[int][]detail.Cell, len(pc.Nets)),
		MatWires:  make(map[int][]geom.Segment, len(pc.Nets)),
	}
	for id := range dirty {
		m.Dirty[id] = true
	}
	pPlan := make(map[int]*plan.NetPlan, len(pc.Nets))
	for i, n := range pc.Nets {
		id := n.ID
		m.Acts[id] = parent.ECO.Acts.Unpack(i)
		m.WActs[id] = parent.ECO.WActs.Unpack(i)
		m.Routes[id] = parent.Routes[i]
		m.Ripped[id] = parent.ECO.Ripped[i]
		m.FreedPins[id] = parent.ECO.FreedPins[i]
		m.MatWires[id] = parent.ECO.MatWires[i]
		pPlan[id] = parent.Plans[i]
	}
	for i, n := range edited.Nets {
		id := n.ID
		if m.Dirty[id] {
			continue
		}
		pp, ok := pPlan[id]
		if !ok || !pp.Equal(plans[i]) {
			m.Dirty[id] = true
		}
	}
	return m
}

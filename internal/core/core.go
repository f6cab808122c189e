// Package core orchestrates the two-pass bottom-up multilevel stitch-aware
// routing framework (Fig. 6 of the paper):
//
//  1. First bottom-up pass — stitch-aware global routing, local nets first
//     (internal/global).
//  2. Intermediate stage — stitch-aware layer assignment (internal/layer)
//     followed by short-polygon-avoiding track assignment (internal/track).
//  3. Second bottom-up pass — stitch-aware detailed routing with failed-net
//     rip-up and rerouting (internal/detail).
//
// Every stage can be switched between its stitch-aware algorithm and the
// conventional baseline, which is how the paper's ablation tables
// (Tables IV, VI, VII, VIII) are produced.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"stitchroute/internal/detail"
	"stitchroute/internal/drc"
	"stitchroute/internal/geom"
	"stitchroute/internal/global"
	"stitchroute/internal/layer"
	"stitchroute/internal/matching"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
	"stitchroute/internal/track"
)

// Config selects the algorithm for every stage.
type Config struct {
	Global    global.Config
	LayerAlgo layer.Algo
	TrackAlgo track.Algo
	Detail    detail.Config
	// RefinePasses is the number of global rip-up/reroute refinement
	// passes after the first bottom-up pass.
	RefinePasses int
}

// StitchAware returns the full stitch-aware framework configuration with
// the paper's parameters (α=1, β=10, γ=5).
func StitchAware() Config {
	return Config{
		Global:       global.StitchAware(),
		LayerAlgo:    layer.KColorableSubset,
		TrackAlgo:    track.GraphBased,
		Detail:       detail.DefaultConfig(true),
		RefinePasses: defaultRefinePasses,
	}
}

// Baseline returns the conventional router: congestion-only global routing
// (the NTUgr stand-in), spanning-tree layer assignment, stitch-oblivious
// track assignment, and conventional detailed routing. Hard constraints
// (no vertical routing or vias on stitching lines) still hold, exactly as
// the paper defines its baseline.
func Baseline() Config {
	return Config{
		Global:       global.Baseline(),
		LayerAlgo:    layer.MaxSpanningTree,
		TrackAlgo:    track.Conventional,
		Detail:       detail.DefaultConfig(false),
		RefinePasses: defaultRefinePasses,
	}
}

// defaultRefinePasses is the default number of rip-up/reroute refinement
// passes after the first bottom-up global pass.
const defaultRefinePasses = 4

// StageTimes records the wall time spent per pipeline stage.
type StageTimes struct {
	Global, Layer, Track, Detail, DRC time.Duration
}

// Stage is one pipeline stage's name and wall time.
type Stage struct {
	Name string
	Time time.Duration
}

// Stages lists the stage times in pipeline order, under the names every
// surface reports them by (the server's stageSeconds and /metrics, and
// meblroute -v).
func (s StageTimes) Stages() []Stage {
	return []Stage{
		{"global", s.Global}, {"layer", s.Layer}, {"track", s.Track},
		{"detail", s.Detail}, {"drc", s.DRC},
	}
}

// Total returns the summed stage time.
func (s StageTimes) Total() time.Duration {
	var t time.Duration
	for _, st := range s.Stages() {
		t += st.Time
	}
	return t
}

// Result is the complete routing outcome.
type Result struct {
	Report drc.Report
	// SPSlots lists the slots whose routes have short polygons, in slot
	// order and uncapped: the base, with Report, that a patch updates
	// the report from instead of re-checking the chip (drc.Update).
	SPSlots []int
	Routes  []plan.NetRoute
	Plans   []*plan.NetPlan

	// Global routing quality (Table IV).
	TVOF, MVOF   int
	GlobalWL     int
	EdgeOverflow int

	// Track assignment summary (Table VII inputs).
	TrackStats track.Stats
	RowRipped  int

	// Detailed routing summary.
	RippedNets, FailedNets int
	DetailConnects         int
	DetailExpansions       int64
	// DetailSched is always zero. Its type spells out the fields of the
	// deprecated detail.SchedStats, so it still accepts a
	// detail.Result.Sched without this package naming that type.
	//
	// Deprecated: the only reader is the benchmark in benchmark/.
	DetailSched struct {
		Speculated, Committed, Conflicts, Replays int
		WorkerTime                                []time.Duration
	}

	Times StageTimes

	// ECO is the recording the incremental engine (internal/eco) replays
	// against when this result is used as the parent of a delta reroute.
	// It is attached to every complete run (the recording is
	// observation-only and cheap); a patch result carries only its
	// freed pins, so a replay off it falls back to a cold route.
	ECO *ECOState
}

// Quality is a run's routing-quality record: the DRC report's counts,
// global overflow (TVOF and MVOF, Table IV), the track stage's bad ends
// (#BE, Table VII) and the detailed router's ripped and failed nets.
// Rout%, #VV and #SP are the columns of Tables III, VII and VIII. The
// server's job summary, the harness goldens, the experiment tables and
// benchjson all embed it, so none of them copies a report field.
type Quality struct {
	Routability         float64 `json:"routability"`
	RoutedNets          int     `json:"routedNets"`
	ViaViolations       int     `json:"viaViolations"`
	ViaViolationsOffPin int     `json:"viaViolationsOffPin"`
	VertRouteViolations int     `json:"vertRouteViolations"`
	ShortPolygons       int     `json:"shortPolygons"`
	Wirelength          int64   `json:"wirelength"`
	Vias                int     `json:"vias"`
	TVOF                int     `json:"tvof"`
	MVOF                int     `json:"mvof"`
	BadEnds             int     `json:"badEnds"`
	RippedNets          int     `json:"rippedNets"`
	FailedNets          int     `json:"failedNets"`
}

// Quality returns the run's quality record.
func (res *Result) Quality() Quality {
	rep := res.Report
	return Quality{
		Routability:         rep.Routability(),
		RoutedNets:          rep.RoutedNets,
		ViaViolations:       rep.ViaViolations,
		ViaViolationsOffPin: rep.ViaViolationsOffPin,
		VertRouteViolations: rep.VertRouteViolations,
		ShortPolygons:       rep.ShortPolygons,
		Wirelength:          rep.Wirelength,
		Vias:                rep.Vias,
		TVOF:                res.TVOF,
		MVOF:                res.MVOF,
		BadEnds:             res.TrackStats.BadEnds,
		RippedNets:          res.RippedNets,
		FailedNets:          res.FailedNets,
	}
}

// ECOState is the per-run recording consumed by internal/eco: the global
// router's read-set/route trace, the detailed router's recording, and an
// echo of the config the run used (an ECO reroute must use the same
// config, or it falls back to a cold run).
type ECOState struct {
	Cfg    Config
	Global *global.Trace
	// Indexed like Routes/Plans (the parent circuit's net slots).
	detail.Recording
}

// ErrCancelled is wrapped into the error RouteContext returns when the
// run is abandoned because its context was cancelled or its deadline
// expired, so callers can tell cancellation/timeout apart from a routing
// failure with errors.Is. The underlying context error (context.Canceled
// or context.DeadlineExceeded) is wrapped too.
var ErrCancelled = errors.New("routing cancelled")

// cancelErr wraps a context error with ErrCancelled.
func cancelErr(err error) error {
	return fmt.Errorf("core: %w: %w", ErrCancelled, err)
}

// Route runs the full framework on the circuit.
func Route(c *netlist.Circuit, cfg Config) (*Result, error) {
	return RouteContext(context.Background(), c, cfg)
}

// RouteContext runs the full framework on the circuit under a context.
// Cancellation is checked at every stage boundary, between nets inside
// global routing and refinement, and at the top of the detailed-routing
// net loop; a cancelled run returns an error wrapping ErrCancelled (and
// the context's own error) within a few nets' worth of work.
func RouteContext(ctx context.Context, c *netlist.Circuit, cfg Config) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return RoutePasses(ctx, c, cfg, Passes{})
}

// GlobalPass runs the first bottom-up global pass on a fresh router.
type GlobalPass func(ctx context.Context, gr *global.Router, c *netlist.Circuit) ([]*plan.NetPlan, error)

// DetailPass runs detailed routing of the assigned plans on a fresh
// router.
type DetailPass func(ctx context.Context, dr *detail.Router, c *netlist.Circuit, plans []*plan.NetPlan) (*detail.Result, error)

// CheckPass computes the DRC report of the routes on c and the slots
// with short polygons, as drc.CheckSlots does.
type CheckPass func(c *netlist.Circuit, routes []plan.NetRoute) (drc.Report, []int)

// Passes are the steps a pipeline run may swap out; a nil pass runs
// cold. The incremental engine (internal/eco) swaps in its memoized
// replays and, for a patch, a DRC update from the parent's report.
// Everything else in a run belongs to the pipeline.
type Passes struct {
	Global GlobalPass
	Detail DetailPass
	Check  CheckPass
}

// RoutePasses runs the pipeline on c with the given passes: global
// routing and refinement, layer and track assignment, then detailed
// routing and the DRC check (RouteDetail). It owns the stage order, the
// cancellation checks between stages, the stage timing and the ECO
// recording; a cancelled run returns an error wrapping ErrCancelled.
func RoutePasses(ctx context.Context, c *netlist.Circuit, cfg Config, p Passes) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, cancelErr(err)
	}
	if p.Global == nil {
		p.Global = func(ctx context.Context, gr *global.Router, c *netlist.Circuit) ([]*plan.NetPlan, error) {
			return gr.RouteAllContext(ctx, c)
		}
	}
	res := &Result{}

	// Stage 1: global routing (first bottom-up pass), then refinement.
	t0 := time.Now()
	gr := global.NewRouter(c.Fabric, cfg.Global)
	var err error
	if res.Plans, err = p.Global(ctx, gr, c); err != nil {
		return nil, cancelErr(err)
	}
	if err := gr.RefineContext(ctx, c, res.Plans, cfg.RefinePasses); err != nil {
		return nil, cancelErr(err)
	}
	res.TVOF, res.MVOF = gr.Overflow()
	res.GlobalWL = gr.Wirelength()
	res.EdgeOverflow = gr.EdgeOverflow()
	res.Times.Global = time.Since(t0)

	// Stage 2a: layer assignment.
	t0 = time.Now()
	if err := assignLayers(ctx, c, res.Plans, cfg.LayerAlgo); err != nil {
		return nil, cancelErr(err)
	}
	res.Times.Layer = time.Since(t0)

	// Stage 2b: track assignment.
	t0 = time.Now()
	if res.TrackStats, res.RowRipped, err = assignTracks(ctx, c, res.Plans, cfg.TrackAlgo); err != nil {
		return nil, cancelErr(err)
	}
	res.Times.Track = time.Since(t0)

	// Stage 3: detailed routing (second bottom-up pass), then DRC.
	dres, err := res.RouteDetail(ctx, c, cfg.Detail, p)
	if err != nil {
		return nil, err
	}
	res.ECO = &ECOState{Cfg: cfg, Global: gr.Trace(), Recording: dres.Recording}
	return res, nil
}

// RouteDetail runs the pipeline's last two stages on res.Plans: detailed
// routing through p.Detail (a cold RunContext when nil), copied into
// res, then the DRC check of the routes against c through p.Check
// (drc.CheckSlots when nil). It times both stages and returns the
// detail result for the caller's ECO recording.
func (res *Result) RouteDetail(ctx context.Context, c *netlist.Circuit, cfg detail.Config, p Passes) (*detail.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, cancelErr(err)
	}
	if p.Detail == nil {
		p.Detail = func(ctx context.Context, dr *detail.Router, c *netlist.Circuit, plans []*plan.NetPlan) (*detail.Result, error) {
			return dr.RunContext(ctx, c, plans)
		}
	}
	if p.Check == nil {
		p.Check = drc.CheckSlots
	}
	t0 := time.Now()
	dres, err := p.Detail(ctx, detail.NewRouter(c.Fabric, cfg), c, res.Plans)
	if err != nil {
		return nil, cancelErr(err)
	}
	res.Routes = dres.Routes
	res.RippedNets = dres.Ripped
	res.FailedNets = dres.Failed
	res.DetailConnects = dres.Connects
	res.DetailExpansions = dres.Expansions
	res.Times.Detail = time.Since(t0)

	t0 = time.Now()
	res.Report, res.SPSlots = p.Check(c, res.Routes)
	res.Times.DRC = time.Since(t0)
	return dres, nil
}

// layersByDir returns the 1-based layer numbers with the given preferred
// direction, ascending. Layer 1 carries the pins and is kept out of the
// horizontal assignment set when other horizontal layers exist: planned
// segments on the pin layer strand pins inside walled pockets, so layer 1
// is left to the detailed router for pin access and short local hops.
func layersByDir(c *netlist.Circuit, dir geom.Orientation) []int {
	var out []int
	for l := 1; l <= c.Fabric.Layers; l++ {
		if c.Fabric.LayerDir(l) == dir {
			out = append(out, l)
		}
	}
	if dir == geom.Horizontal && len(out) > 1 && out[0] == 1 {
		out = out[1:]
	}
	return out
}

// panelKey names one panel of segments: its direction (0 horizontal,
// 1 vertical), its index across that direction, and, for track
// assignment, its layer.
type panelKey struct {
	dirBit, panel, layer int
}

// groupPanels groups the plans' segments by panel, and by layer too when
// byLayer is set, and returns the keys sorted by direction, panel and
// layer.
func groupPanels(plans []*plan.NetPlan, byLayer bool) (map[panelKey][]*plan.GSeg, []panelKey) {
	groups := map[panelKey][]*plan.GSeg{}
	var keys []panelKey
	for _, p := range plans {
		if p == nil {
			continue
		}
		for _, s := range p.Segs {
			k := panelKey{panel: s.Panel}
			if s.Dir == geom.Vertical {
				k.dirBit = 1
			}
			if byLayer {
				k.layer = s.Layer
			}
			if _, ok := groups[k]; !ok {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], s)
		}
	}
	slices.SortFunc(keys, func(a, b panelKey) int {
		return cmp.Or(cmp.Compare(a.dirBit, b.dirBit), cmp.Compare(a.panel, b.panel), cmp.Compare(a.layer, b.layer))
	})
	return groups, keys
}

// runPanels calls solve(i) for each panel of keys on at most GOMAXPROCS
// goroutines at a time. Each solve must write only its own panel's
// segments and result slot, so the outcome does not depend on the
// schedule. Once ctx is done no further panel starts, and runPanels
// returns ctx's error after the running ones end. A panel's panic is
// re-raised on the calling goroutine, with the panel's key and stack,
// after every panel goroutine has been joined.
func runPanels(ctx context.Context, keys []panelKey, solve func(i int)) error {
	var wg sync.WaitGroup
	faults := make(chan string, len(keys))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, k := range keys {
		sem <- struct{}{}
		if ctx.Err() != nil || len(faults) > 0 {
			break
		}
		wg.Add(1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					faults <- fmt.Sprintf("core: panel %+v: %v\n%s", k, r, debug.Stack())
				}
				<-sem
				wg.Done()
			}()
			solve(i)
		}()
	}
	wg.Wait()
	if len(faults) > 0 {
		panic(<-faults)
	}
	return ctx.Err()
}

// AssignLayers distributes every panel's global segments over the
// same-direction layers (§III-B), writing GSeg.Layer.
func AssignLayers(c *netlist.Circuit, plans []*plan.NetPlan, algo layer.Algo) {
	_ = assignLayers(context.TODO(), c, plans, algo)
}

func assignLayers(ctx context.Context, c *netlist.Circuit, plans []*plan.NetPlan, algo layer.Algo) error {
	vLayers := layersByDir(c, geom.Vertical)
	hLayers := layersByDir(c, geom.Horizontal)
	byPanel, keys := groupPanels(plans, false)
	// Two phases: horizontal panels first, so the vertical phase can map
	// its color groups to layers by via-stack cost against the now-known
	// horizontal layers ([4]'s via-minimizing group-to-layer assignment).
	// Keys sort horizontal first.
	split := sort.Search(len(keys), func(i int) bool { return keys[i].dirBit == 1 })
	hKeys, vKeys := keys[:split], keys[split:]
	if err := runPanels(ctx, hKeys, func(i int) {
		assignPanelLayers(byPanel[hKeys[i]], hLayers, algo, nil)
	}); err != nil {
		return err
	}
	conn := buildHConnIndex(plans)
	return runPanels(ctx, vKeys, func(i int) {
		assignPanelLayers(byPanel[vKeys[i]], vLayers, algo, conn)
	})
}

// hConnIndex locates, for a vertical segment end, the horizontal segment
// it connects to, so the via-stack cost of a candidate vertical layer can
// be computed. Read-only during the vertical phase.
type hConnIndex struct {
	// byNet[netID] lists the net's horizontal segments.
	byNet map[int][]*plan.GSeg
}

func buildHConnIndex(plans []*plan.NetPlan) *hConnIndex {
	idx := &hConnIndex{byNet: map[int][]*plan.GSeg{}}
	for _, p := range plans {
		if p == nil {
			continue
		}
		for _, s := range p.Segs {
			if s.Dir == geom.Horizontal {
				idx.byNet[s.NetID] = append(idx.byNet[s.NetID], s)
			}
		}
	}
	return idx
}

// endLayer returns the layer of the horizontal segment that the vertical
// segment's end at (panel, row) connects to, or 1 (the pin layer) when
// the end terminates on a pin.
func (idx *hConnIndex) endLayer(s *plan.GSeg, row int) int {
	for _, h := range idx.byNet[s.NetID] {
		if h.Layer > 0 && h.Panel == row && h.Span.Contains(s.Panel) {
			return h.Layer
		}
	}
	return 1
}

// viaCost estimates the via-stack cost of placing the segment on the
// given vertical layer: the layer distance to each end's connection.
func (idx *hConnIndex) viaCost(s *plan.GSeg, l int) int64 {
	lo := idx.endLayer(s, s.Span.Lo)
	hi := idx.endLayer(s, s.Span.Hi)
	return int64(geom.Abs(l-lo) + geom.Abs(l-hi))
}

// assignPanelLayers colors one panel's segments and maps color groups to
// layers. With a connection index (vertical panels), the group-to-layer
// mapping minimizes the total via-stack cost with a min-cost perfect
// matching, following [4]; without one (horizontal panels), larger groups
// go to higher layers, keeping the pin layer's neighbours light.
func assignPanelLayers(segs []*plan.GSeg, layers []int, algo layer.Algo, conn *hConnIndex) {
	k := len(layers)
	if k == 0 {
		return
	}
	if k == 1 {
		for _, s := range segs {
			s.Layer = layers[0]
		}
		return
	}
	inst := layer.InstanceFromSegs(segs)
	colors := layer.Assign(inst, k, algo)

	colorToLayer := make([]int, k)
	if conn != nil {
		// Via-minimizing mapping: cost[color][rank] = total via-stack cost
		// of putting that color group on layers[rank].
		cost := make([][]int64, k)
		for c := range cost {
			cost[c] = make([]int64, k)
		}
		for i, s := range segs {
			for rank, l := range layers {
				cost[colors[i]][rank] += conn.viaCost(s, l)
			}
		}
		assign, _ := matching.MinCostPerfect(cost)
		for c, rank := range assign {
			colorToLayer[c] = layers[rank]
		}
	} else {
		// Order color groups by total span length, descending; largest to
		// the highest layer.
		totals := make([]int, k)
		for i, s := range segs {
			totals[colors[i]] += s.Span.Len()
		}
		order := make([]int, k)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return totals[order[a]] > totals[order[b]] })
		for rank, color := range order {
			colorToLayer[color] = layers[k-1-rank]
		}
	}
	for i, s := range segs {
		s.Layer = colorToLayer[colors[i]]
	}
}

// AssignTracks runs track assignment for every (panel, layer) group
// (§III-C), writing GSeg.Tracks/BadEnds/Ripped and each plan's BadEnds.
// It returns the aggregated column-panel stats and the number of ripped
// row-panel segments.
func AssignTracks(c *netlist.Circuit, plans []*plan.NetPlan, algo track.Algo) (track.Stats, int) {
	st, rows, _ := assignTracks(context.TODO(), c, plans, algo)
	return st, rows
}

func assignTracks(ctx context.Context, c *netlist.Circuit, plans []*plan.NetPlan, algo track.Algo) (track.Stats, int, error) {
	f := c.Fabric
	groups, keys := groupPanels(plans, true)
	// The stats are merged after the panels end, in key order, keeping
	// the outcome deterministic.
	type result struct {
		stats track.Stats
		rows  int
	}
	results := make([]result, len(keys))
	err := runPanels(ctx, keys, func(i int) {
		k, segs := keys[i], groups[keys[i]]
		if k.dirBit == 1 {
			p := &track.Problem{
				Width:          f.TileRect(k.panel, 0).W(),
				HasRightStitch: (k.panel+1)*f.StitchPitch < f.XTracks,
				SUREps:         f.SUREps,
				Segs:           segs,
			}
			results[i].stats = track.Solve(ctx, p, algo)
		} else {
			results[i].rows = track.SolveRow(f.TileRect(0, k.panel).H(), segs)
		}
	})
	if err != nil {
		return track.Stats{}, 0, err
	}
	var agg track.Stats
	rowRipped := 0
	for _, r := range results {
		agg.Ripped += r.stats.Ripped
		agg.BadEnds += r.stats.BadEnds
		agg.Doglegs += r.stats.Doglegs
		agg.Fallbacks += r.stats.Fallbacks
		rowRipped += r.rows
	}
	// Roll bad-end counts up to the nets for detailed-routing ordering.
	for _, p := range plans {
		if p == nil {
			continue
		}
		p.BadEnds = 0
		for _, s := range p.Segs {
			p.BadEnds += s.BadEnds
		}
	}
	return agg, rowRipped, nil
}

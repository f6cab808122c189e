package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"stitchroute"
	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/detail"
	"stitchroute/internal/drc"
	"stitchroute/internal/fracture"
	"stitchroute/internal/global"
	"stitchroute/internal/harness"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/plan"
	"stitchroute/internal/stencil"
)

// spec returns the canonical benchmark spec of a circuit name.
func spec(name string) bench.Spec {
	s, err := bench.ByName(name)
	if err != nil {
		panic(err) // sizes name only bundled circuits
	}
	return s
}

// route runs the router with its default configuration. Untraced it is
// the facade's RouteContext; traced it calls the stages in the order
// core.RouteContext does, each in its own span, and must produce the
// same routes.
func route(ctx context.Context, c *netlist.Circuit, rec *recorder, op, root int) (*core.Result, error) {
	cfg := stitchroute.StitchAware()
	if rec == nil {
		return stitchroute.RouteContext(ctx, c, cfg)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	res := &core.Result{}
	var gr *global.Router
	var err error
	rec.time(op, root, "global.route", func() {
		gr = global.NewRouter(c.Fabric, cfg.Global)
		res.Plans, err = gr.RouteAllContext(ctx, c)
	})
	if err == nil {
		rec.time(op, root, "global.refine", func() { err = gr.RefineContext(ctx, c, res.Plans, cfg.RefinePasses) })
	}
	if err != nil {
		return nil, err
	}
	res.TVOF, res.MVOF = gr.Overflow()
	res.GlobalWL = gr.Wirelength()
	res.EdgeOverflow = gr.EdgeOverflow()
	rec.time(op, root, "layer.assign", func() { core.AssignLayers(c, res.Plans, cfg.LayerAlgo) })
	rec.time(op, root, "track.assign", func() { res.TrackStats, res.RowRipped = core.AssignTracks(c, res.Plans, cfg.TrackAlgo) })
	var dres *detail.Result
	rec.time(op, root, "detail.run", func() {
		t0 := time.Now()
		dr := detail.NewRouter(c.Fabric, cfg.Detail)
		dr.SetCongestion(gr.Congestion())
		dres, err = dr.RunContext(ctx, c, res.Plans)
		res.Times.Detail = time.Since(t0)
	})
	if err != nil {
		return nil, err
	}
	res.Routes, res.RippedNets, res.FailedNets = dres.Routes, dres.Ripped, dres.Failed
	res.DetailConnects, res.DetailExpansions, res.DetailSched = dres.Connects, dres.Expansions, dres.Sched
	rec.time(op, root, "drc.check", func() { res.Report = drc.Check(c, res.Routes) })
	return res, nil
}

// routeCounts are a routing result's per-layer counts and quality.
func routeCounts(res *core.Result) map[string]float64 {
	sd := res.DetailSched
	return map[string]float64{
		"global.wirelength":  float64(res.GlobalWL),
		"global.overflow":    float64(res.TVOF),
		"track.ripped":       float64(res.TrackStats.Ripped + res.RowRipped),
		"track.bad_ends":     float64(res.TrackStats.BadEnds),
		"detail.searches":    float64(res.DetailConnects),
		"detail.expansions":  float64(res.DetailExpansions),
		"detail.ripped_nets": float64(res.RippedNets),
		"detail.speculated":  float64(sd.Speculated),
		"detail.committed":   float64(sd.Committed),
		"detail.conflicts":   float64(sd.Conflicts),
		"detail.replays":     float64(sd.Replays),
		"drc.failed_nets":    float64(res.FailedNets),
		"drc.short_polygons": float64(res.Report.ShortPolygons),
		"drc.via_violations": float64(res.Report.ViaViolations),
		"drc.wirelength":     float64(res.Report.Wirelength),
	}
}

// workerSamples are the detail scheduler's busy time and capacity
// (run time × workers) for one op.
func workerSamples(res *core.Result) map[string]float64 {
	var busy time.Duration
	for _, d := range res.DetailSched.WorkerTime {
		busy += d
	}
	return map[string]float64{
		"detail.worker_busy_s": busy.Seconds(),
		"detail.capacity_s":    res.Times.Detail.Seconds() * float64(len(res.DetailSched.WorkerTime)),
	}
}

// verify checks routed geometry against the hard DRC invariants — no
// off-pin via violations, no vertical wires on stitching lines, no
// shorts, every routed net connected, net accounting consistent — and
// returns its canonical hash with the time each part took.
func verify(c *netlist.Circuit, routes []plan.NetRoute, failed int) (hash string, samples map[string]float64, err error) {
	t0 := time.Now()
	cr := harness.CheckResult{
		Report:       drc.Check(c, routes),
		Shorts:       drc.CheckShorts(routes),
		Disconnected: drc.CheckConnectivity(c, routes),
		FailedNets:   failed,
	}
	t1 := time.Now()
	hash, err = nlio.RoutesHash(routes)
	samples = map[string]float64{
		"drc.invariants_s":    t1.Sub(t0).Seconds(),
		"nlio.routes_hash_ms": float64(time.Since(t1)) / float64(time.Millisecond),
	}
	if err != nil {
		return "", samples, err
	}
	if v := cr.HardViolations(); len(v) > 0 {
		return hash, samples, errors.New(strings.Join(v, "; "))
	}
	return hash, samples, nil
}

// chipOrder is the chip-cold op list for a seed: the canonical chips in
// a seeded order. Varying the chips themselves with the seed would move
// route time by about 10% and short-polygon counts by more, wider than
// any useful bound.
func chipOrder(sz sizes, seed int64) []bench.Spec {
	out := make([]bench.Spec, len(sz.chips))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(sz.chips)) {
		out[i] = spec(sz.chips[j])
	}
	return out
}

// chipCold is the meblroute -fracture lshape -stencil flow: Generate,
// Route, Fracture and PlanStencil through the facade.
type chipCold struct{ specs []bench.Spec }

type chipOut struct {
	c   *netlist.Circuit
	res *core.Result
	fr  *fracture.Result
	pl  *stencil.Plan
}

// setupChip fixes the op list and pays what loading a chip costs before
// it is routed: generating it and hashing its content (the server's
// cache key).
func setupChip(_ context.Context, sz sizes, seed int64) (instance, error) {
	w := &chipCold{specs: chipOrder(sz, seed)}
	for _, s := range w.specs {
		if _, err := nlio.CircuitHash(stitchroute.Generate(s)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *chipCold) close() {}

func (w *chipCold) passLen() int { return len(w.specs) }

func (w *chipCold) pass(ctx context.Context, i int, rec *recorder) (passOut, error) {
	return sequentialPass(ctx, w, i, rec), nil
}

func (w *chipCold) run(ctx context.Context, i int, rec *recorder, op, root int) (any, error) {
	var out chipOut
	rec.time(op, root, "bench.generate", func() { out.c = stitchroute.Generate(w.specs[i]) })
	var err error
	if out.res, err = route(ctx, out.c, rec, op, root); err != nil {
		return nil, err
	}
	rec.time(op, root, "fracture.run", func() {
		out.fr, err = stitchroute.FractureContext(ctx, out.res.Routes, out.c.Fabric.Layers, stitchroute.FractureLShape, stitchroute.FractureOptions{})
	})
	if err != nil {
		return nil, err
	}
	rec.time(op, root, "stencil.build", func() {
		out.pl, err = stitchroute.PlanStencilContext(ctx, out.fr.Shots, stitchroute.StencilOptions{})
	})
	return out, err
}

func (w *chipCold) check(i int, o any) opResult {
	out := o.(chipOut)
	r := opResult{key: w.specs[i].Name, counts: routeCounts(out.res)}
	hash, samples, err := verify(out.c, out.res.Routes, out.res.FailedNets)
	r.samples = samples
	for k, v := range workerSamples(out.res) {
		r.samples[k] = v
	}
	t0 := time.Now()
	shots, herr := fracture.ShotsHash(out.fr.Shots)
	r.samples["fracture.hash_s"] = time.Since(t0).Seconds()
	r.hash = hash + "/" + shots
	r.err = errors.Join(err, herr)
	for k, v := range prepCounts(out.fr, out.pl) {
		r.counts[k] = v
	}
	if r.err != nil {
		r.err = fmt.Errorf("%s: %w", w.specs[i].Name, r.err)
	}
	return r
}

// prepCounts are a write-prep result's counts.
func prepCounts(fr *fracture.Result, pl *stencil.Plan) map[string]float64 {
	return map[string]float64{
		"fracture.shots":     float64(fr.ShotCount),
		"stencil.write_time": pl.CPTime,
		"stencil.candidates": float64(pl.Candidates),
		"stencil.characters": float64(len(pl.Placements)),
	}
}

// Package stitchroute is a stitch-aware routing framework for multiple
// e-beam lithography (MEBL), reproducing "Stitch-Aware Routing for Multiple
// E-Beam Lithography" (Liu, Fang, Chang — DAC 2013 / TCAD 2015).
//
// In MEBL a layout is written by thousands of parallel beams; the stripe
// boundaries between beams are stitching lines, and overlay error between
// beams distorts any critical pattern they cut. This package routes
// netlists so that no via sits on a stitching line, no wire runs along one
// vertically, and almost no short polygons (stitch-cut wire stubs with
// landing vias) remain — via a two-pass bottom-up multilevel flow with
// stitch-aware global routing, layer assignment, track assignment, and
// detailed routing.
//
// Quick start:
//
//	spec, _ := stitchroute.BenchmarkByName("S9234")
//	circuit := stitchroute.Generate(spec)
//	result, err := stitchroute.Route(circuit, stitchroute.StitchAware())
//	fmt.Println(result.Report.ShortPolygons)
//
// The implementation lives in internal/ packages (core, global, layer,
// track, detail, drc, raster, viz, ...); this package is the stable facade
// over them.
package stitchroute

import (
	"context"
	"io"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/drc"
	"stitchroute/internal/eco"
	"stitchroute/internal/fracture"
	"stitchroute/internal/gds"
	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/place"
	"stitchroute/internal/plan"
	"stitchroute/internal/stencil"
	"stitchroute/internal/viz"
)

// Core model types.
type (
	// Circuit is a routing problem: a fabric plus a netlist.
	Circuit = netlist.Circuit
	// Net is a set of pins to connect.
	Net = netlist.Net
	// Pin is a fixed terminal on a layer.
	Pin = netlist.Pin
	// Fabric is the gridded multi-layer routing plane with stitching lines.
	Fabric = grid.Fabric
	// Point is an integer track location.
	Point = geom.Point
	// Segment is an axis-parallel wire on a routing layer.
	Segment = geom.Segment
	// Config selects the algorithm for every routing stage.
	Config = core.Config
	// Result is the complete routing outcome, including the DRC report
	// and per-stage timings.
	Result = core.Result
	// Report is the stitch-constraint violation summary.
	Report = drc.Report
	// NetRoute is one net's final geometry.
	NetRoute = plan.NetRoute
	// Spec describes one benchmark circuit of the paper's Tables I–II.
	Spec = bench.Spec
	// SVGOptions controls layout rendering.
	SVGOptions = viz.Options
)

// NewFabric returns a routing fabric with the paper's stitch parameters:
// stitching lines every 15 tracks, one-track stitch-unfriendly regions,
// and two-track escape regions. Layer 1 is horizontal-preferred.
func NewFabric(xTracks, yTracks, layers int) *Fabric {
	return grid.New(xTracks, yTracks, layers)
}

// StitchAware returns the full stitch-aware framework configuration
// (α=1, β=10, γ=5, graph-based track assignment).
func StitchAware() Config { return core.StitchAware() }

// Baseline returns the conventional router the paper compares against.
func Baseline() Config { return core.Baseline() }

// Route runs the two-pass bottom-up multilevel routing flow.
func Route(c *Circuit, cfg Config) (*Result, error) { return core.Route(c, cfg) }

// RouteContext is Route with cancellation and deadlines: the run aborts
// at the next stage boundary or net-loop iteration after ctx is done,
// returning an error that wraps ErrCancelled and the context's error.
func RouteContext(ctx context.Context, c *Circuit, cfg Config) (*Result, error) {
	return core.RouteContext(ctx, c, cfg)
}

// ErrCancelled is wrapped into RouteContext's error when a run is
// abandoned due to context cancellation or deadline expiry, so callers
// can distinguish it from a routing failure with errors.Is.
var ErrCancelled = core.ErrCancelled

// Check re-runs the stitch DRC on routed geometry.
func Check(c *Circuit, routes []NetRoute) Report { return drc.Check(c, routes) }

// Benchmarks returns every benchmark spec (MCNC then Faraday).
func Benchmarks() []Spec { return bench.All() }

// BenchmarkByName looks up one benchmark spec.
func BenchmarkByName(name string) (Spec, error) { return bench.ByName(name) }

// Generate builds the deterministic synthetic circuit for a spec.
func Generate(s Spec) *Circuit { return bench.Generate(s) }

// WriteSVG renders routed geometry as SVG.
func WriteSVG(w io.Writer, f *Fabric, routes []NetRoute, opt SVGOptions) error {
	return viz.WriteSVG(w, f, routes, opt)
}

// PlaceStats reports what RefinePlacement did.
type PlaceStats = place.Stats

// RefinePlacement nudges stitch-column pins off the stitching lines — the
// stitch-aware placement stage the paper proposes as future work (§V). It
// returns a new circuit; the input is unmodified.
func RefinePlacement(c *Circuit) (*Circuit, PlaceStats) { return place.Refine(c) }

// WriteGDS exports routed geometry as a GDSII stream file viewable in
// standard layout tools (KLayout etc.).
func WriteGDS(w io.Writer, routes []NetRoute, libName, cellName string) error {
	return gds.Write(w, routes, gds.Options{LibName: libName, CellName: cellName})
}

// Write-prep types: the downstream MEBL mask-data-preparation pipeline
// that turns routed geometry into e-beam shots and a CP stencil plan.
type (
	// FractureMode selects rectangle-only or L-shape fracturing.
	FractureMode = fracture.Mode
	// FractureOptions is empty: fracturing has no settings.
	//
	// Deprecated: the only caller is the benchmark in benchmark/.
	FractureOptions = fracture.Options
	// FractureResult is the fractured shot list with its statistics.
	FractureResult = fracture.Result
	// Shot is one e-beam exposure (a rectangle or an L-shape).
	Shot = fracture.Shot
	// StencilOptions is empty: stencil planning has no settings.
	//
	// Deprecated: the only caller is the benchmark in benchmark/.
	StencilOptions = stencil.Options
	// StencilPlan is the packed character set and its write-time model.
	StencilPlan = stencil.Plan
)

// Fracturing modes.
const (
	// FractureRect is the rectangle-only sweep baseline.
	FractureRect = fracture.ModeRect
	// FractureLShape merges rectangle pairs into L-shape shots.
	FractureLShape = fracture.ModeLShape
)

// ParseFractureMode maps the CLI/API spelling ("rect" or "lshape").
func ParseFractureMode(s string) (FractureMode, error) { return fracture.ParseMode(s) }

// Fracture converts routed geometry into e-beam shots: the per-layer
// union of wires and via pads is decomposed into rectangle shots (and,
// in FractureLShape mode, L-shape shots via maximum matching). The shot
// list is deterministic and area-exact — it rasterizes identically to
// the unfractured geometry.
func Fracture(routes []NetRoute, layers int, mode FractureMode, opts FractureOptions) *FractureResult {
	return fracture.Fracture(routes, layers, mode, opts)
}

// FractureContext is Fracture with cancellation.
func FractureContext(ctx context.Context, routes []NetRoute, layers int, mode FractureMode, opts FractureOptions) (*FractureResult, error) {
	return fracture.FractureContext(ctx, routes, layers, mode, opts)
}

// PlanStencil plans a CP stencil for a fractured shot list: repeated
// shot patterns become characters, selected and packed overlapping-aware
// to minimize write time under the plate capacity.
func PlanStencil(shots []Shot, opts StencilOptions) *StencilPlan {
	return stencil.Build(shots, opts)
}

// PlanStencilContext is PlanStencil with cancellation.
func PlanStencilContext(ctx context.Context, shots []Shot, opts StencilOptions) (*StencilPlan, error) {
	return stencil.BuildContext(ctx, shots, opts)
}

// ECO types: incremental rerouting of an already-routed circuit under a
// small edit script — see docs/ECO.md.
type (
	// ECOEdit is one edit operation (add/delete/move/movepin).
	ECOEdit = eco.Edit
	// ECOScript is an ordered edit list with an optional patch margin.
	ECOScript = eco.Script
	// ECOPin is a pin location inside an edit.
	ECOPin = eco.Pin
	// ECOResult is an incremental reroute's outcome: a full Result for
	// the edited circuit plus replay statistics.
	ECOResult = eco.Result
	// ECOStats summarizes how much of the parent result was reused.
	ECOStats = eco.Stats
)

// ECO edit ops.
const (
	ECOAdd     = eco.OpAdd
	ECODelete  = eco.OpDelete
	ECOMove    = eco.OpMove
	ECOMovePin = eco.OpMovePin
)

// ParseECOScript decodes a JSON edit script ({"edits":[...]}).
func ParseECOScript(r io.Reader) (*ECOScript, error) { return eco.ParseScript(r) }

// RouteECO incrementally reroutes the parent result's circuit under the
// edit script by replaying the committed searches everywhere the edit
// provably cannot have changed them. The result is byte-for-byte the
// cold reroute of the edited circuit (same routes, plans, DRC report) —
// see docs/ECO.md for the equivalence argument. When the parent carries
// no usable recording the call falls back to a cold route
// (ECOResult.Stats.Fallback).
func RouteECO(parent *Result, c *Circuit, s *ECOScript, cfg Config) (*ECOResult, error) {
	return eco.Reroute(parent, c, s, cfg)
}

// RouteECOContext is RouteECO with cancellation (stage boundaries and
// per-net loop checks, like RouteContext).
func RouteECOContext(ctx context.Context, parent *Result, c *Circuit, s *ECOScript, cfg Config) (*ECOResult, error) {
	return eco.RerouteContext(ctx, parent, c, s, cfg)
}

// RouteECOPatch incrementally reroutes by grafting: the parent's
// committed grid is kept verbatim and only the edited nets plus the
// nets whose routes intersect the edit's dirty region (inflated by the
// script's margin) are ripped up and rerouted. The cost scales with the
// edit, not the circuit — typically well over 10x faster than a cold
// reroute — and the result is deterministic and carries the DRC report
// a full check of its routes gives, but NOT byte-identical to a cold
// reroute; use RouteECO for the provably-equivalent replay.
func RouteECOPatch(parent *Result, c *Circuit, s *ECOScript, cfg Config) (*ECOResult, error) {
	return eco.ReroutePatch(parent, c, s, cfg)
}

// RouteECOPatchContext is RouteECOPatch with cancellation.
func RouteECOPatchContext(ctx context.Context, parent *Result, c *Circuit, s *ECOScript, cfg Config) (*ECOResult, error) {
	return eco.ReroutePatchContext(ctx, parent, c, s, cfg)
}

// ReadCircuit parses a circuit in the nlio text format.
func ReadCircuit(r io.Reader) (*Circuit, error) { return nlio.Read(r) }

// WriteCircuit serializes a circuit in the nlio text format.
func WriteCircuit(w io.Writer, c *Circuit) error { return nlio.Write(w, c) }

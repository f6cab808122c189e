// Package harness is the end-to-end correctness harness for the
// stitch-aware routing pipeline. It generates seeded random circuits
// across a parameter grid (gen.go), routes each under both the
// stitch-aware and baseline configurations, and asserts the full
// invariant battery:
//
//   - hard DRC invariants — no off-pin via violations, no vertical wires
//     on stitching lines, no cross-net shorts, every routed net actually
//     connected, and failed/routed counts that add up;
//   - metamorphic properties — the stitch-aware router is never worse
//     than the baseline on stitch violations; translating the stripe
//     grid by one pitch or mirroring the circuit vertically preserves
//     the violation counts; and rerouting the same circuit twice is
//     byte-identical (determinism, the contract the server's result
//     cache relies on);
//   - golden metrics — per-benchmark wirelength/vias/short-polygon/
//     routability snapshots and routes hashes, compared exactly
//     (golden.go).
//
// The battery runs three ways: `go test ./internal/harness/` (short mode
// runs a subset), `cmd/routecheck` for multi-seed soak runs, and an
// endpoint-level differential test that routes the same circuit through
// internal/server and in-process and asserts identical results.
package harness

import (
	"fmt"

	"stitchroute/internal/core"
	"stitchroute/internal/drc"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/plan"
)

// CheckResult bundles every correctness check for one routed circuit.
type CheckResult struct {
	Report       drc.Report
	Shorts       int // cross-net shorted cells (drc.CheckShorts)
	Disconnected int // routed nets that fail connectivity (drc.CheckConnectivity)
	FailedNets   int
	RoutesHash   string // canonical hash of the routed geometry
}

// Check runs the full post-route audit on a routing result.
func Check(c *netlist.Circuit, res *core.Result) (CheckResult, error) {
	return CheckRoutes(c, res.Routes, res.FailedNets)
}

// CheckRoutes audits routed geometry directly — including geometry that
// did not come from an in-process core.Result, such as routes fetched
// back from the HTTP service. The full DRC is re-run from scratch.
func CheckRoutes(c *netlist.Circuit, routes []plan.NetRoute, failedNets int) (CheckResult, error) {
	hash, err := nlio.RoutesHash(routes)
	if err != nil {
		return CheckResult{}, err
	}
	return CheckResult{
		Report:       drc.Check(c, routes),
		Shorts:       drc.CheckShorts(routes),
		Disconnected: drc.CheckConnectivity(c, routes),
		FailedNets:   failedNets,
		RoutesHash:   hash,
	}, nil
}

// HardViolations returns the broken hard invariants, empty when the
// result is clean. These must hold for every circuit and every config —
// stitch-aware or baseline, benchmark or random.
func (r CheckResult) HardViolations() []string {
	var v []string
	rep := r.Report
	if rep.ViaViolationsOffPin != 0 {
		v = append(v, fmt.Sprintf("%d via violations off-pin (vias on stitching lines away from pins)", rep.ViaViolationsOffPin))
	}
	if rep.VertRouteViolations != 0 {
		v = append(v, fmt.Sprintf("%d vertical wires running along stitching lines", rep.VertRouteViolations))
	}
	if r.Shorts != 0 {
		v = append(v, fmt.Sprintf("%d cross-net shorted cells", r.Shorts))
	}
	if r.Disconnected != 0 {
		v = append(v, fmt.Sprintf("%d routed nets are disconnected", r.Disconnected))
	}
	if rep.RoutedNets+r.FailedNets != rep.TotalNets {
		v = append(v, fmt.Sprintf("net accounting broken: %d routed + %d failed != %d total",
			rep.RoutedNets, r.FailedNets, rep.TotalNets))
	}
	return v
}

// RouteAndCheck routes the circuit under cfg and audits the result.
func RouteAndCheck(c *netlist.Circuit, cfg core.Config) (*core.Result, CheckResult, error) {
	res, err := core.Route(c, cfg)
	if err != nil {
		return nil, CheckResult{}, err
	}
	cr, err := Check(c, res)
	return res, cr, err
}

// spTolerance is the base allowance for short-polygon count drift under
// the geometric transforms; verifyTransforms adds one per 50 nets. The
// transformed problem is not exactly isomorphic (the fabric boundary
// moves relative to the pins), so heuristic tie-breaks may shift a few
// counts; drift beyond the tolerance indicates the pipeline reacts to
// something other than the stitch geometry.
const spTolerance = 2

// Outcome is the verdict of Verify for one circuit: both configs'
// check results plus every violated property.
type Outcome struct {
	Name       string
	Stitch     CheckResult
	Baseline   CheckResult
	Violations []string
}

// Ok reports whether the battery passed.
func (o *Outcome) Ok() bool { return len(o.Violations) == 0 }

// Verify runs the complete battery on the circuit produced by fresh:
// the hard invariants on both configs, stitch-aware versus baseline, a
// determinism reroute that must be byte-identical, and the metamorphic
// transforms.
// The factory must return a structurally identical circuit on every call
// (both generators in this repo are deterministic); Verify calls it for
// each independent routing run so no run can observe another's side
// effects.
func Verify(name string, fresh func() *netlist.Circuit) (*Outcome, error) {
	o := &Outcome{Name: name}
	reject := func(context string, v []string) {
		for _, s := range v {
			o.Violations = append(o.Violations, context+": "+s)
		}
	}

	_, stitch, err := RouteAndCheck(fresh(), core.StitchAware())
	if err != nil {
		return nil, fmt.Errorf("%s: stitch-aware route: %w", name, err)
	}
	o.Stitch = stitch
	reject("stitch", stitch.HardViolations())

	_, base, err := RouteAndCheck(fresh(), core.Baseline())
	if err != nil {
		return nil, fmt.Errorf("%s: baseline route: %w", name, err)
	}
	o.Baseline = base
	reject("baseline", base.HardViolations())

	// Metamorphic: the stitch-aware router must never be worse than the
	// baseline on the paper's soft stitch violation, short polygons.
	if stitch.Report.ShortPolygons > base.Report.ShortPolygons {
		o.Violations = append(o.Violations, fmt.Sprintf(
			"stitch-aware has MORE short polygons than baseline: %d > %d",
			stitch.Report.ShortPolygons, base.Report.ShortPolygons))
	}

	_, again, err := RouteAndCheck(fresh(), core.StitchAware())
	if err != nil {
		return nil, fmt.Errorf("%s: determinism reroute: %w", name, err)
	}
	if again.RoutesHash != stitch.RoutesHash {
		o.Violations = append(o.Violations, fmt.Sprintf(
			"nondeterministic: rerouting produced different geometry (%s vs %s)",
			stitch.RoutesHash[:12], again.RoutesHash[:12]))
	}

	if err := verifyTransforms(o, fresh, stitch); err != nil {
		return nil, err
	}
	return o, nil
}

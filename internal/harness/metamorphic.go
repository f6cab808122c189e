package harness

import (
	"fmt"

	"stitchroute/internal/core"
	"stitchroute/internal/geom"
	"stitchroute/internal/netlist"
)

// TranslateX returns a copy of the circuit shifted right by one full
// stitch pitch, on a fabric one stripe wider. Because stitching lines sit
// at x ≡ 0 (mod pitch), the shifted pins see exactly the same stitch
// geometry — every pin keeps its distance to its nearest stitching line,
// so the set of pin-forced via violations is preserved exactly.
func TranslateX(c *netlist.Circuit) *netlist.Circuit {
	f := *c.Fabric
	f.XTracks += f.StitchPitch
	out := &netlist.Circuit{Name: c.Name + "+pitch", Fabric: &f}
	for _, n := range c.Nets {
		nn := &netlist.Net{ID: n.ID, Name: n.Name}
		for _, p := range n.Pins {
			nn.Pins = append(nn.Pins, netlist.Pin{
				Point: geom.Point{X: p.X + c.Fabric.StitchPitch, Y: p.Y},
				Layer: p.Layer,
			})
		}
		out.Nets = append(out.Nets, nn)
	}
	return out
}

// MirrorY returns a copy of the circuit flipped vertically
// (y → YTracks−1−y). Stitching lines are vertical, so the flip leaves the
// stitch geometry untouched: every pin keeps its x coordinate and hence
// its stitch-column membership.
func MirrorY(c *netlist.Circuit) *netlist.Circuit {
	out := &netlist.Circuit{Name: c.Name + "~mirror", Fabric: c.Fabric}
	for _, n := range c.Nets {
		nn := &netlist.Net{ID: n.ID, Name: n.Name}
		for _, p := range n.Pins {
			nn.Pins = append(nn.Pins, netlist.Pin{
				Point: geom.Point{X: p.X, Y: c.Fabric.YTracks - 1 - p.Y},
				Layer: p.Layer,
			})
		}
		out.Nets = append(out.Nets, nn)
	}
	return out
}

// verifyTransforms routes each stitch-preserving transform of the circuit
// under the stitch-aware config and checks that the violation counts are
// preserved: the hard invariants still hold, the pin-forced via-violation
// potential is exactly unchanged (that is a property of the transform,
// asserted as a sanity check), and the short-polygon count drifts by at
// most spTolerance plus one per 50 nets.
func verifyTransforms(o *Outcome, fresh func() *netlist.Circuit, stitch CheckResult) error {
	orig := fresh()
	origPinVV := orig.PinViaViolations()
	transforms := []struct {
		name  string
		apply func(*netlist.Circuit) *netlist.Circuit
	}{
		{"translate+1pitch", TranslateX},
		{"mirror-y", MirrorY},
	}
	for _, tr := range transforms {
		tc := tr.apply(fresh())
		if got := tc.PinViaViolations(); got != origPinVV {
			o.Violations = append(o.Violations, fmt.Sprintf(
				"%s: transform changed pin-forced via potential: %d -> %d (transform bug)",
				tr.name, origPinVV, got))
			continue
		}
		_, cr, err := RouteAndCheck(tc, core.StitchAware())
		if err != nil {
			return fmt.Errorf("%s: %s route: %w", o.Name, tr.name, err)
		}
		for _, v := range cr.HardViolations() {
			o.Violations = append(o.Violations, tr.name+": "+v)
		}
		// Every net is an independent tie-break opportunity, so the drift
		// budget scales with circuit size on top of the base tolerance.
		tol := spTolerance + len(tc.Nets)/50
		if d := geom.Abs(cr.Report.ShortPolygons - stitch.Report.ShortPolygons); d > tol {
			o.Violations = append(o.Violations, fmt.Sprintf(
				"%s: short polygons drifted by %d (%d -> %d, tolerance %d)",
				tr.name, d, stitch.Report.ShortPolygons, cr.Report.ShortPolygons, tol))
		}
	}
	return nil
}

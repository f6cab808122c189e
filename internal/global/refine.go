package global

import (
	"context"

	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// historyInc is the per-pass penalty added to every overflowed resource
// during refinement; it makes repeat offenders progressively expensive,
// as in PathFinder-style negotiated congestion.
const historyInc = 1.0

// Refine performs rip-up/reroute passes to clear overflow: every pass,
// nets using an overflowed edge — or, when the line-end cost is enabled,
// placing a line end in an overflowed tile — are unrouted and rerouted
// against the accumulated history penalties. The plans slice is updated
// in place; nets and plans must be parallel to the circuit's net slice.
func (r *Router) Refine(c *netlist.Circuit, plans []*plan.NetPlan, passes int) {
	_ = r.RefineContext(context.Background(), c, plans, passes)
}

// RefineContext is Refine with cancellation: ctx is checked between
// passes and periodically inside each pass's reroute loop. Rip-up and
// reroute of a net is atomic with respect to cancellation, so the plans
// slice is always consistent when it returns.
func (r *Router) RefineContext(ctx context.Context, c *netlist.Circuit, plans []*plan.NetPlan, passes int) error {
	for pass := 0; pass < passes; pass++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		tvof, _ := r.Overflow()
		eof := r.EdgeOverflow()
		if eof == 0 && (tvof == 0 || !r.cfg.LineEndCost) {
			return nil
		}
		// Bump history on every overflowed resource.
		for i := range r.hDem {
			if r.hDem[i] > r.hCap[i] {
				r.hHist[i] += historyInc
			}
		}
		for i := range r.vDem {
			if r.vDem[i] > r.vCap[i] {
				r.vHist[i] += historyInc
			}
		}
		if r.cfg.LineEndCost {
			for i := range r.endDem {
				if r.endDem[i] > r.endCap[i] {
					r.endHist[i] += historyInc
				}
			}
		}
		// Collect and reroute the offending nets.
		rerouted := 0
		for slot, np := range plans {
			if np == nil || !r.usesOverflow(np) {
				continue
			}
			if rerouted%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			rerouted++
			r.unroute(np)
			plans[slot] = r.RouteNet(c.Nets[slot])
		}
	}
	return nil
}

// usesOverflow reports whether the net's route touches an overflowed
// resource.
func (r *Router) usesOverflow(np *plan.NetPlan) bool {
	for _, e := range np.Edges {
		if e.Horizontal() {
			i := e.A.TY*(r.tw-1) + e.A.TX
			if r.hDem[i] > r.hCap[i] {
				return true
			}
		} else {
			i := e.A.TY*r.tw + e.A.TX
			if r.vDem[i] > r.vCap[i] {
				return true
			}
		}
	}
	if r.cfg.LineEndCost {
		for _, le := range plan.LineEnds(np.Segs) {
			i := le.TY*r.tw + le.TX
			if r.endDem[i] > r.endCap[i] {
				return true
			}
		}
	}
	return false
}

// unroute removes a net's committed demands.
func (r *Router) unroute(np *plan.NetPlan) {
	for _, e := range np.Edges {
		if e.Horizontal() {
			r.hDem[e.A.TY*(r.tw-1)+e.A.TX]--
		} else {
			r.vDem[e.A.TY*r.tw+e.A.TX]--
		}
	}
	for _, le := range plan.LineEnds(np.Segs) {
		r.endDem[le.TY*r.tw+le.TX]--
	}
	np.Edges = nil
	np.Segs = nil
}

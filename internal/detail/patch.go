package detail

import (
	"context"
	"slices"

	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// RunPatch is a graft reroute against the parent recording in m. Unlike
// the memoized replay (RunMemo), it does not re-execute the cold
// pipeline: it reconstructs the parent's final occupancy, removes only
// the nets to reroute, and routes them in the leftover space, so its
// cost scales with the edit, not the circuit. The result is
// deterministic and DRC-checkable but not byte-identical to a cold
// reroute in general.
//
// A slot that m.From matches keeps its parent route verbatim: RunPatch
// stamps that committed geometry into a cleared grid. Every unmatched
// slot, a slot past the end of m.From included, gets a routing task:
// pins and candidates are reserved for those nets only, and they route
// sequentially in the stitch-aware order. The second return is the
// number of nets grafted without a search.
//
// RunPatch only reads m, so one Memo can drive any number of runs. The
// result's kept routes and freed-pin records share their slices with
// m: nothing appends to or edits them, since only unmatched nets are
// routed and the capacity of each shared slice is capped at its length.
func (r *Router) RunPatch(ctx context.Context, c *netlist.Circuit, plans []*plan.NetPlan, m *Memo) (*Result, int, error) {
	if r.sc == nil {
		r.borrow()
		defer r.giveBack()
	}
	n := len(c.Nets)
	res := newResult(n)

	// Stamp the kept nets' final geometry: wires first, then the pin
	// reservations the parent still held at the end (freed pins stay
	// free — their release is part of the committed state).
	var live []*routeTask
	for i, net := range c.Nets {
		ps := m.From.Parent(i)
		if ps < 0 {
			live = append(live, newTask(c, plans, i))
			continue
		}
		kr, freed := m.Routes[ps], m.FreedPins[ps]
		r.stampRecorded(net, kr.Wires, freed)
		kr.Wires = slices.Clip(kr.Wires)
		kr.Vias = slices.Clip(kr.Vias)
		res.Routes[i] = kr
		res.FreedPins[i] = slices.Clip(freed)
	}

	// Rerouted nets go through the normal cold prepare: pin + escape
	// reservation, then candidate materialization, both against the
	// grafted grid.
	r.reserveAndMaterialize(live)

	// Only rerouted nets have tasks; the kept slots' freed pins came
	// from the parent. A patch records no activity footprints.
	_, err := r.loop(ctx, res, r.netOrder(live), nil, nil)
	r.finish(res, live)
	return res, n - len(live), err
}

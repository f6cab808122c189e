package detail

import (
	"context"
	"slices"

	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// Patch describes a graft reroute: the parent run's final per-net
// geometry for the nets kept verbatim, and the set of nets to rip up
// and route afresh against that committed grid. Unlike the memoized
// replay (RunMemo), a patch does not re-execute the cold pipeline — it
// reconstructs the parent's final occupancy, removes only the dirty
// nets, and routes them in the leftover space, so its cost scales with
// the edit, not the circuit. The result is deterministic and
// DRC-checkable but not byte-identical to a cold reroute in general.
//
// Every field is indexed by the edited circuit's net slot. RunPatch
// only reads the Patch, so one Patch can drive any number of runs.
type Patch struct {
	// Dirty marks the slots to rip up and re-route. A slot not marked
	// must have its parent route in Keep.
	Dirty []bool
	// Keep holds the parent's final route of every slot not in Dirty,
	// grafted verbatim. A slot beyond len(Keep) has no committed
	// geometry and is routed live, like a dirty one.
	Keep []plan.NetRoute
	// FreedPins holds the parent's freed-pin record of every kept slot:
	// pin reservations the parent run released (covered by another net
	// or by a ripped transient path). Kept nets do not re-reserve them.
	FreedPins [][]Cell
}

// dirty reports whether slot i is routed rather than grafted.
func (p *Patch) dirty(i int) bool {
	return i >= len(p.Keep) || (i < len(p.Dirty) && p.Dirty[i])
}

// RunPatch stamps the kept nets' committed geometry into a cleared grid,
// reserves pins and candidates for the dirty nets only, and routes the
// dirty nets sequentially in the stitch-aware order. Only dirty nets
// get a routing task. The second return is the number of nets grafted
// without a search.
//
// The result's kept routes and freed-pin records share their slices
// with p. Nothing appends to or edits them: only dirty nets are routed,
// and the capacity of each shared slice is capped at its length.
func (r *Router) RunPatch(ctx context.Context, c *netlist.Circuit, plans []*plan.NetPlan, p *Patch) (*Result, int, error) {
	if r.sc == nil {
		r.borrow()
		defer r.giveBack()
	}
	n := len(c.Nets)
	res := newResult(n)

	// Stamp the kept nets' final geometry: wires first, then the pin
	// reservations the parent still held at the end (freed pins stay
	// free — their release is part of the committed state).
	var dirty []*routeTask
	for i, net := range c.Nets {
		if p.dirty(i) {
			dirty = append(dirty, newTask(c, plans, i))
			continue
		}
		kr := p.Keep[i]
		var freed []Cell
		if i < len(p.FreedPins) {
			freed = p.FreedPins[i]
		}
		r.stampRecorded(net, kr.Wires, freed)
		kr.Wires = slices.Clip(kr.Wires)
		kr.Vias = slices.Clip(kr.Vias)
		res.Routes[i] = kr
		res.FreedPins[i] = slices.Clip(freed)
	}

	// Dirty nets go through the normal cold prepare: pin + escape
	// reservation, then candidate materialization, both against the
	// grafted grid.
	r.reserveAndMaterialize(dirty)

	// Only dirty nets have tasks; the kept slots' freed pins came from
	// the Patch. A patch records no activity footprints.
	_, err := r.loop(ctx, res, r.netOrder(dirty), nil, nil)
	r.finish(res, dirty)
	return res, n - len(dirty), err
}

package detail

import (
	"context"

	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// Patch describes a graft reroute: the parent run's final per-net
// geometry for the nets kept verbatim, and the set of net IDs to rip up
// and route afresh against that committed grid. Unlike the memoized
// replay (RunMemo), a patch does not re-execute the cold pipeline — it
// reconstructs the parent's final occupancy, removes only the dirty
// nets, and routes them in the leftover space, so its cost scales with
// the edit, not the circuit. The result is deterministic and
// DRC-checkable but not byte-identical to a cold reroute in general.
type Patch struct {
	// Dirty is the set of net IDs to rip up and re-route. Every net of
	// the circuit not in Dirty must have an entry in Keep.
	Dirty map[int]bool
	// Keep maps net ID to the parent's final route, grafted verbatim.
	Keep map[int]plan.NetRoute
	// FreedPins maps net ID to the parent's freed-pin record: pin
	// reservations the parent run released (covered by another net or
	// by a ripped transient path). Kept nets do not re-reserve them.
	FreedPins map[int][]Cell
}

// RunPatch stamps the kept nets' committed geometry into a fresh grid,
// reserves pins and candidates for the dirty nets only, and routes the
// dirty nets sequentially in the stitch-aware order. The second return
// is the number of nets grafted without a search.
func (r *Router) RunPatch(ctx context.Context, c *netlist.Circuit, plans []*plan.NetPlan, p *Patch) (*Result, int, error) {
	res := &Result{Routes: make([]plan.NetRoute, len(c.Nets))}

	nets := make([]*routeTask, len(c.Nets))
	var dirtyTasks []*routeTask
	for i, n := range c.Nets {
		t := newTask(c, plans, i)
		nets[i] = t
		if p.Dirty[n.ID] {
			dirtyTasks = append(dirtyTasks, t)
		} else if _, ok := p.Keep[n.ID]; !ok {
			// No committed geometry to graft — route it live.
			p.Dirty[n.ID] = true
			dirtyTasks = append(dirtyTasks, t)
		}
	}

	// Stamp the kept nets' final geometry: wires first, then the pin
	// reservations the parent still held at the end (freed pins stay
	// free — their release is part of the committed state).
	for _, t := range nets {
		id := t.net.ID
		if p.Dirty[id] {
			continue
		}
		kr := p.Keep[id]
		for _, w := range kr.Wires {
			r.fillWire(w, int32(id)+1)
		}
		freed := p.FreedPins[id]
		for _, pin := range t.net.Pins {
			cl := Cell{X: pin.X, Y: pin.Y, L: pin.Layer - 1}
			wasFreed := false
			for _, f := range freed {
				if f == cl {
					wasFreed = true
					break
				}
			}
			if !wasFreed {
				if i := r.idx(cl.X, cl.Y, cl.L); r.occ[i] == 0 {
					r.occ[i] = int32(id) + 1
				}
			}
		}
		t.wires = kr.Wires
		t.vias = kr.Vias
		t.freedPins = append([]Cell(nil), freed...)
		res.Routes[t.slot] = kr
	}

	// Dirty nets go through the normal cold prepare: pin + escape
	// reservation, then candidate materialization, both against the
	// grafted grid.
	r.reserveAndMaterialize(dirtyTasks)

	order := r.netOrder(dirtyTasks)
	record := recorder(res)
	for oi, t := range order {
		if err := ctx.Err(); err != nil {
			for _, rest := range order[oi:] {
				record(rest, false)
			}
			r.finish(res, nets)
			return res, len(nets) - len(dirtyTasks), err
		}
		// Negotiation victims are restricted to the dirty set: a graft
		// must not disturb kept geometry.
		r.routeOne(t, dirtyTasks, res, record)
	}
	r.finish(res, nets)
	return res, len(nets) - len(dirtyTasks), nil
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"stitchroute"
	"stitchroute/internal/core"
	"stitchroute/internal/eco"
	"stitchroute/internal/geom"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/plan"
)

// ecoPatch patches one seeded single-net edit into a parent route built
// in set-up. Edits are independent: each applies to the parent.
type ecoPatch struct {
	pc      *netlist.Circuit
	parent  *core.Result
	scripts []*eco.Script
	// slot maps a parent net ID to its index; owner maps every wire cell
	// of the parent to the index of the net that covers it.
	slot  map[int]int
	owner map[[3]int]int
}

// wireCells calls fn for every (x, y, layer) cell a wire covers.
func wireCells(w geom.Segment, fn func([3]int)) {
	for v := w.Span.Lo; v <= w.Span.Hi; v++ {
		if w.Orient == geom.Horizontal {
			fn([3]int{v, w.Fixed, w.Layer})
		} else {
			fn([3]int{w.Fixed, v, w.Layer})
		}
	}
}

// setupECO routes and checks the parent and derives the edits.
func setupECO(ctx context.Context, sz sizes, seed int64) (instance, error) {
	pc := stitchroute.Generate(spec(sz.ecoParent))
	parent, err := route(ctx, pc, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	if _, _, err := verify(pc, parent.Routes, parent.FailedNets); err != nil {
		return nil, fmt.Errorf("parent: %w", err)
	}
	w := &ecoPatch{pc: pc, parent: parent, scripts: ecoEdits(pc, sz, seed), slot: map[int]int{}, owner: map[[3]int]int{}}
	for i, n := range pc.Nets {
		w.slot[n.ID] = i
		for _, wire := range parent.Routes[i].Wires {
			wireCells(wire, func(c [3]int) { w.owner[c] = i })
		}
	}
	for i, s := range w.scripts {
		if err := s.Validate(pc); err != nil {
			return nil, fmt.Errorf("edit %d: %w", i, err)
		}
	}
	return w, nil
}

// ecoEdits returns one single-edit script per op of a pass: the edit
// kinds in sz's counts, in a seeded order, on seeded nets. Edit i draws
// its net from the i-th of as many equal strata of the nets ordered by
// size, so every seed edits as many small and large nets and the seed
// moves the patch cost little. New pins land on the free cell nearest a
// seeded point, so an edit is a local change and never puts two pins on
// one cell.
func ecoEdits(c *netlist.Circuit, sz sizes, seed int64) []*eco.Script {
	rng := rand.New(rand.NewSource(seed))
	var kinds []string
	for _, k := range []struct {
		op string
		n  int
	}{{eco.OpMovePin, sz.ecoMovePin}, {eco.OpMove, sz.ecoMove}, {eco.OpAdd, sz.ecoAdd}, {eco.OpDelete, sz.ecoDelete}} {
		for i := 0; i < k.n; i++ {
			kinds = append(kinds, k.op)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	used := map[geom.Point]bool{}
	maxID := 0
	for _, n := range c.Nets {
		maxID = max(maxID, n.ID)
		for _, p := range n.Pins {
			used[p.Point] = true
		}
	}
	f := c.Fabric
	// near returns the free cell nearest (x, y), scanning rings outward,
	// and reserves it for the rest of this edit.
	near := func(x, y int, taken map[geom.Point]bool) eco.Pin {
		x = min(max(x, 0), f.XTracks-1)
		y = min(max(y, 0), f.YTracks-1)
		for r := 0; ; r++ {
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					p := geom.Point{X: x + dx, Y: y + dy}
					if max(geom.Abs(dx), geom.Abs(dy)) != r || p.X < 0 || p.Y < 0 || p.X >= f.XTracks || p.Y >= f.YTracks || used[p] || taken[p] {
						continue
					}
					taken[p] = true
					return eco.Pin{X: p.X, Y: p.Y, Layer: 1}
				}
			}
		}
	}
	jitter := func(v int) int { return v + rng.Intn(11) - 5 }
	bySize := slices.Clone(c.Nets)
	slices.SortStableFunc(bySize, func(a, b *netlist.Net) int { return a.HPWL() - b.HPWL() })

	scripts := make([]*eco.Script, len(kinds))
	for i, k := range kinds {
		lo, hi := i*len(bySize)/len(kinds), (i+1)*len(bySize)/len(kinds)
		n := bySize[lo+rng.Intn(max(hi-lo, 1))]
		taken := map[geom.Point]bool{}
		e := eco.Edit{Op: k, ID: n.ID}
		switch k {
		case eco.OpMovePin:
			e.Pin = rng.Intn(len(n.Pins))
			p := near(n.Pins[e.Pin].X, n.Pins[e.Pin].Y, taken)
			e.X, e.Y = p.X, p.Y
		case eco.OpMove:
			for _, p := range n.Pins {
				e.Pins = append(e.Pins, near(jitter(p.X), jitter(p.Y), taken))
			}
		case eco.OpAdd:
			e.ID = maxID + 1
			x, y := rng.Intn(f.XTracks), rng.Intn(f.YTracks)
			for j := 0; j < 2+rng.Intn(2); j++ {
				e.Pins = append(e.Pins, near(jitter(x), jitter(y), taken))
			}
		}
		scripts[i] = &eco.Script{Edits: []eco.Edit{e}}
	}
	return scripts
}

func (w *ecoPatch) close() {}

func (w *ecoPatch) passLen() int { return len(w.scripts) }

func (w *ecoPatch) pass(ctx context.Context, i int, rec *recorder) (passOut, error) {
	return sequentialPass(ctx, w, i, rec), nil
}

func (w *ecoPatch) run(ctx context.Context, i int, rec *recorder, op, root int) (any, error) {
	var er *eco.Result
	var err error
	rec.time(op, root, "eco.patch", func() {
		er, err = stitchroute.RouteECOPatchContext(ctx, w.parent, w.pc, w.scripts[i], stitchroute.StitchAware())
	})
	return er, err
}

// check holds the patched routes to the hard invariants. The parent
// passed them in set-up and a patch keeps every other net's route
// verbatim, so only the nets whose routes changed, and the parent nets
// with a wire on a cell they cover, are checked: the full battery on the
// whole chip would cost more than the patch. For the same reason the output
// hash covers the changed routes only; with the parent fixed, they
// determine the rest.
func (w *ecoPatch) check(i int, o any) opResult {
	er := o.(*eco.Result)
	r := opResult{key: fmt.Sprint("edit ", i), counts: routeCounts(er.Result)}
	for _, k := range []string{"global.wirelength", "global.overflow", "track.ripped", "track.bad_ends"} {
		delete(r.counts, k) // carried over from the parent, not this op's work
	}
	r.counts["eco.detail_routed"] = float64(er.Stats.DetailRouted)
	r.counts["eco.detail_reused"] = float64(er.Stats.DetailReused)
	if er.Stats.Fallback {
		r.err = fmt.Errorf("edit %d: patch fell back to a cold route", i)
		return r
	}
	edited := er.Edited
	dirty := w.scripts[i].DirtyIDs()
	in := make([]bool, len(edited.Nets))
	var changed []int
	byParent := make(map[int]int, len(edited.Nets))
	for s, n := range edited.Nets {
		p, ok := w.slot[n.ID]
		if ok {
			byParent[p] = s
		}
		if dirty[n.ID] || !ok || !sameRoute(er.Routes[s], w.parent.Routes[p]) {
			in[s] = true
			changed = append(changed, s)
		}
	}
	for _, s := range changed {
		for _, wire := range er.Routes[s].Wires {
			wireCells(wire, func(c [3]int) {
				if p, ok := w.owner[c]; ok {
					if s, ok := byParent[p]; ok {
						in[s] = true
					}
				}
			})
		}
	}
	sub := &netlist.Circuit{Name: edited.Name, Fabric: edited.Fabric}
	var routes []plan.NetRoute
	failed := 0
	for s, n := range edited.Nets {
		if in[s] {
			sub.Nets = append(sub.Nets, n)
			routes = append(routes, er.Routes[s])
			if !er.Routes[s].Routed {
				failed++
			}
		}
	}
	_, samples, err := verify(sub, routes, failed)
	r.samples = samples
	r.samples["detail.run_s"] = er.Times.Detail.Seconds()
	t0 := time.Now()
	h := sha256.New()
	fmt.Fprintln(h, len(edited.Nets))
	for _, s := range changed {
		fmt.Fprintln(h, "slot", s)
		if err == nil {
			err = nlio.WriteRoutes(h, er.Routes[s:s+1])
		}
	}
	r.samples["nlio.routes_hash_ms"] = ms(time.Since(t0))
	r.hash = hex.EncodeToString(h.Sum(nil))
	if err != nil {
		r.err = fmt.Errorf("edit %d (%s net %d): %w", i, w.scripts[i].Edits[0].Op, w.scripts[i].Edits[0].ID, err)
	}
	return r
}

func sameRoute(a, b plan.NetRoute) bool {
	return a.Routed == b.Routed && slices.Equal(a.Wires, b.Wires) && slices.Equal(a.Vias, b.Vias)
}

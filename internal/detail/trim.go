package detail

import (
	"stitchroute/internal/geom"
	"stitchroute/internal/plan"
)

// trimNet removes dangling wire ends from a routed net: planned segments
// span whole global tiles, so after the connections are made their unused
// tails carry no current. An end cell can be trimmed when it is not a pin,
// not under a via, and not shared with another wire of the net. Trimming
// never disconnects the net because only leaf cells are removed.
func (r *Router) trimNet(t *routeTask) {
	id := int32(t.net.ID)

	// Coverage counts per cell over the net's wires (stamped scratch
	// grids replace per-call maps — trimming runs once per routed net).
	sc := &r.sc
	stamp := sc.growMark(r.X * r.Y * r.L)
	cover := sc.mark
	coverAt := func(c cell) int32 {
		if s := cover[r.idx(c.x, c.y, c.l)]; s.stamp == stamp {
			return s.val
		}
		return 0
	}
	for _, w := range t.wires {
		forEachCell(w, func(c cell) {
			i := r.idx(c.x, c.y, c.l)
			if cover[i].stamp != stamp {
				cover[i] = stampVal{stamp: stamp, val: 0}
			}
			cover[i].val++
		})
	}
	anchor := sc.mark2
	mark := func(x, y, l int) { anchor[r.idx(x, y, l)].stamp = stamp }
	isAnchor := func(c cell) bool { return anchor[r.idx(c.x, c.y, c.l)].stamp == stamp }
	for _, p := range t.net.Pins {
		mark(p.X, p.Y, p.Layer-1)
	}
	for _, v := range t.vias {
		mark(v.X, v.Y, v.Layer-1)
		mark(v.X, v.Y, v.Layer)
	}

	free := func(c cell) { r.occ[r.idx(c.x, c.y, c.l)] = 0 }

	changed := true
	for changed {
		changed = false
		for i := range t.wires {
			w := &t.wires[i]
			if w.Span.Empty() {
				continue
			}
			for {
				lo := endCell(*w, true)
				if w.Span.Empty() || isAnchor(lo) || coverAt(lo) > 1 {
					break
				}
				cover[r.idx(lo.x, lo.y, lo.l)].val--
				free(lo)
				w.Span.Lo++
				changed = true
			}
			for {
				if w.Span.Empty() {
					break
				}
				hi := endCell(*w, false)
				if isAnchor(hi) || coverAt(hi) > 1 {
					break
				}
				cover[r.idx(hi.x, hi.y, hi.l)].val--
				free(hi)
				w.Span.Hi--
				changed = true
			}
		}
	}
	// Drop emptied wires.
	out := t.wires[:0]
	for _, w := range t.wires {
		if !w.Span.Empty() {
			out = append(out, w)
		}
	}
	t.wires = out

	// Re-mark remaining cells (freeing above may have cleared shared cells
	// that surviving wires still cover).
	for _, w := range t.wires {
		r.fillWire(w, id+1)
	}
}

func endCell(w geom.Segment, low bool) cell {
	v := w.Span.Lo
	if !low {
		v = w.Span.Hi
	}
	if w.Orient == geom.Horizontal {
		return cell{v, w.Fixed, w.Layer - 1}
	}
	return cell{w.Fixed, v, w.Layer - 1}
}

func forEachCell(w geom.Segment, fn func(cell)) {
	if w.Orient == geom.Horizontal {
		for x := w.Span.Lo; x <= w.Span.Hi; x++ {
			fn(cell{x, w.Fixed, w.Layer - 1})
		}
	} else {
		for y := w.Span.Lo; y <= w.Span.Hi; y++ {
			fn(cell{w.Fixed, y, w.Layer - 1})
		}
	}
}

// Wirelength returns the total geometric length (in track units) of a
// route's wires after merging overlaps per layer/track.
func Wirelength(routes []plan.NetRoute) int64 {
	var total int64
	for i := range routes {
		for _, w := range MergedWires(routes[i].Wires) {
			total += int64(w.Span.Len() - 1)
		}
	}
	return total
}

// MergedWires merges a net's collinear overlapping/touching wires into
// maximal segments — the polygons the DRC inspects.
func MergedWires(wires []geom.Segment) []geom.Segment {
	type key struct {
		orient geom.Orientation
		layer  int
		fixed  int
	}
	groups := map[key][]geom.Interval{}
	var keys []key
	for _, w := range wires {
		if w.Span.Empty() {
			continue
		}
		k := key{w.Orient, w.Layer, w.Fixed}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], w.Span)
	}
	var out []geom.Segment
	for _, k := range keys {
		for _, span := range mergeIntervals(groups[k]) {
			out = append(out, geom.Segment{Orient: k.orient, Layer: k.layer, Fixed: k.fixed, Span: span})
		}
	}
	return out
}

// mergeIntervals merges overlapping or cell-adjacent closed intervals.
func mergeIntervals(ivs []geom.Interval) []geom.Interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := append([]geom.Interval(nil), ivs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Lo < sorted[j-1].Lo; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	out := []geom.Interval{sorted[0]}
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi+1 {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

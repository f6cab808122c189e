package detail

import (
	"slices"

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
	// grids over the box of the net's wires, pins and vias replace
	// per-call maps — trimming runs once per routed net).
	sc := r.sc
	box := pinsBBox(wiresBBox(emptyBox, t.wires), t.net.Pins)
	for _, v := range t.vias {
		box = box.Union(geom.Rect{X0: v.X, Y0: v.Y, X1: v.X, Y1: v.Y})
	}
	stamp := r.growMark(box)
	cover, mw := sc.mark, &sc.mwin
	coverAt := func(c cell) int32 {
		if s := cover[mw.idx(c.x, c.y, c.l)]; s.stamp == stamp {
			return s.val
		}
		return 0
	}
	for _, w := range t.wires {
		forEachCell(w, func(c cell) {
			i := mw.idx(c.x, c.y, c.l)
			if cover[i].stamp != stamp {
				cover[i] = stampVal{stamp: stamp, val: 0}
			}
			cover[i].val++
		})
	}
	anchor := sc.mark2
	mark := func(x, y, l int) { anchor[mw.idx(x, y, l)] = stamp }
	isAnchor := func(c cell) bool { return anchor[mw.idx(c.x, c.y, c.l)] == stamp }
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
				cover[mw.idx(lo.x, lo.y, lo.l)].val--
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
				cover[mw.idx(hi.x, hi.y, hi.l)].val--
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
	var m WireMerger
	for i := range routes {
		for _, w := range m.Merge(routes[i].Wires) {
			total += int64(w.Span.Len() - 1)
		}
	}
	return total
}

// MergedWires merges a net's collinear overlapping/touching wires into
// maximal segments — the polygons the DRC inspects. Groups of wires on
// one (orientation, layer, track) come out in the order each group first
// appears in wires, and each group's merged spans in ascending order.
func MergedWires(wires []geom.Segment) []geom.Segment {
	var m WireMerger
	return m.Merge(wires)
}

// WireMerger is reusable scratch for MergedWires' merge; its zero value
// is ready to use. A caller that merges many nets keeps one and so
// allocates only while the scratch grows.
type WireMerger struct {
	items  []mergeItem
	groups []mergeGroup
	spans  []geom.Segment
	out    []geom.Segment
}

// mergeItem is a non-empty wire and its position in the input.
type mergeItem struct {
	w   geom.Segment
	pos int
}

// mergeGroup is one (orientation, layer, track) group: the input
// position of its first wire and its merged spans, spans[lo:hi].
type mergeGroup struct {
	first, lo, hi int
}

// Merge returns the merged form of wires, exactly as MergedWires does
// (nil when no wire is non-empty). The result aliases the scratch and
// is valid until the next call.
//
// Sorting the wires by (orientation, layer, track, span start) puts each
// group's wires next to each other with ascending starts, which is all
// the interval merge needs; its output does not depend on how wires with
// equal starts are ordered. The groups are then emitted by their first
// input position.
func (m *WireMerger) Merge(wires []geom.Segment) []geom.Segment {
	items := m.items[:0]
	for i, w := range wires {
		if !w.Span.Empty() {
			items = append(items, mergeItem{w: w, pos: i})
		}
	}
	m.items = items
	slices.SortFunc(items, cmpMergeItem)

	groups := m.groups[:0]
	spans := m.spans[:0]
	for i := 0; i < len(items); {
		g := mergeGroup{first: items[i].pos, lo: len(spans)}
		cur := items[i].w
		j := i + 1
		for ; j < len(items) && sameTrack(items[j].w, cur); j++ {
			w := items[j].w
			g.first = min(g.first, items[j].pos)
			if w.Span.Lo <= cur.Span.Hi+1 {
				cur.Span.Hi = max(cur.Span.Hi, w.Span.Hi)
				continue
			}
			spans = append(spans, cur)
			cur = w
		}
		spans = append(spans, cur)
		g.hi = len(spans)
		groups = append(groups, g)
		i = j
	}
	m.groups, m.spans = groups, spans
	slices.SortFunc(groups, func(a, b mergeGroup) int { return a.first - b.first })

	out := m.out[:0]
	for _, g := range groups {
		out = append(out, spans[g.lo:g.hi]...)
	}
	m.out = out
	if len(out) == 0 {
		return nil
	}
	return out
}

func sameTrack(a, b geom.Segment) bool {
	return a.Orient == b.Orient && a.Layer == b.Layer && a.Fixed == b.Fixed
}

func cmpMergeItem(a, b mergeItem) int {
	switch {
	case a.w.Orient != b.w.Orient:
		return int(a.w.Orient) - int(b.w.Orient)
	case a.w.Layer != b.w.Layer:
		return a.w.Layer - b.w.Layer
	case a.w.Fixed != b.w.Fixed:
		return a.w.Fixed - b.w.Fixed
	}
	return a.w.Span.Lo - b.w.Span.Lo
}

package drc

import (
	"reflect"
	"testing"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// refCheck is the map-based checker Check replaced, kept as the
// reference its output must equal field for field, SPSites order
// included.
func refCheck(c *netlist.Circuit, routes []plan.NetRoute) Report {
	rep := Report{TotalNets: len(c.Nets)}
	f := c.Fabric
	for i := range routes {
		rt := &routes[i]
		if rt.Routed {
			rep.RoutedNets++
		}
		var pins []netlist.Pin
		if i < len(c.Nets) {
			pins = c.Nets[i].Pins
		}
		refCheckNet(f, rt, pins, &rep)
	}
	return rep
}

func refCheckNet(f *grid.Fabric, rt *plan.NetRoute, pins []netlist.Pin, rep *Report) {
	merged := refMergedWires(rt.Wires)
	for _, w := range merged {
		rep.Wirelength += int64(w.Span.Len() - 1)
	}

	pinAt := make(map[geom.Point]bool, len(pins))
	for _, p := range pins {
		pinAt[p.Point] = true
	}

	rep.Vias += len(rt.Vias)
	viaAt := make(map[[3]int]bool, len(rt.Vias)*2)
	for _, v := range rt.Vias {
		viaAt[[3]int{v.X, v.Y, v.Layer}] = true
		viaAt[[3]int{v.X, v.Y, v.Layer + 1}] = true
		if f.IsStitchCol(v.X) {
			rep.ViaViolations++
			if !pinAt[geom.Point{X: v.X, Y: v.Y}] {
				rep.ViaViolationsOffPin++
			}
		}
	}

	for _, w := range merged {
		if w.Orient == geom.Vertical && f.IsStitchCol(w.Fixed) && w.Span.Len() > 1 {
			rep.VertRouteViolations++
		}
	}

	for _, w := range merged {
		if w.Orient != geom.Horizontal {
			continue
		}
		lo, hi := w.Span.Lo, w.Span.Hi
		for _, end := range [2]int{lo, hi} {
			s, d := f.NearestStitch(end)
			if d == 0 || d > f.SUREps {
				continue
			}
			if s <= lo || s >= hi {
				continue
			}
			if viaAt[[3]int{end, w.Fixed, w.Layer}] {
				rep.ShortPolygons++
				if len(rep.SPSites) < maxSPSites {
					rep.SPSites = append(rep.SPSites, geom.Point{X: end, Y: w.Fixed})
				}
			}
		}
	}
}

// refMergedWires is the map-and-insertion-sort merge detail.MergedWires
// replaced: groups keyed by (orientation, layer, track) in first
// appearance order, each group's spans sorted and merged.
func refMergedWires(wires []geom.Segment) []geom.Segment {
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
		sorted := append([]geom.Interval(nil), groups[k]...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j].Lo < sorted[j-1].Lo; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		merged := []geom.Interval{sorted[0]}
		for _, iv := range sorted[1:] {
			last := &merged[len(merged)-1]
			if iv.Lo <= last.Hi+1 {
				if iv.Hi > last.Hi {
					last.Hi = iv.Hi
				}
			} else {
				merged = append(merged, iv)
			}
		}
		for _, span := range merged {
			out = append(out, geom.Segment{Orient: k.orient, Layer: k.layer, Fixed: k.fixed, Span: span})
		}
	}
	return out
}

// checkRef runs Check, fails the test unless its report deep-equals the
// reference checker's, and returns it.
func checkRef(t *testing.T, c *netlist.Circuit, routes []plan.NetRoute) Report {
	t.Helper()
	got, want := Check(c, routes), refCheck(c, routes)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Check differs from the reference:\n got  %+v\n want %+v", got, want)
	}
	return got
}

// refConnectivity is the per-net hash-map CheckConnectivity replaced,
// kept as the reference its count must equal.
func refConnectivity(c *netlist.Circuit, routes []plan.NetRoute) int {
	bad := 0
	for i := range routes {
		if !routes[i].Routed {
			continue
		}
		if i >= len(c.Nets) || !refNetConnected(&routes[i], c.Nets[i]) {
			bad++
		}
	}
	return bad
}

func refNetConnected(rt *plan.NetRoute, net *netlist.Net) bool {
	type cell3 struct{ x, y, l int }
	cells := map[cell3]int{}
	parent := []int{}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	touch := func(c cell3) int {
		if id, ok := cells[c]; ok {
			return id
		}
		id := len(parent)
		parent = append(parent, id)
		cells[c] = id
		return id
	}
	for _, w := range rt.Wires {
		prev := -1
		for k := w.Span.Lo; k <= w.Span.Hi; k++ {
			c := cell3{k, w.Fixed, w.Layer}
			if w.Orient != geom.Horizontal {
				c = cell3{w.Fixed, k, w.Layer}
			}
			id := touch(c)
			if prev >= 0 {
				union(prev, id)
			}
			prev = id
		}
	}
	for _, v := range rt.Vias {
		a, okA := cells[cell3{v.X, v.Y, v.Layer}]
		b, okB := cells[cell3{v.X, v.Y, v.Layer + 1}]
		if okA && okB {
			union(a, b)
		}
	}
	root := -1
	for _, p := range net.Pins {
		id, ok := cells[cell3{p.X, p.Y, p.Layer}]
		if !ok {
			return false
		}
		if root == -1 {
			root = find(id)
		} else if find(id) != root {
			return false
		}
	}
	return true
}

// Package detail re-creates the commitPath finding from commit b0e72bb:
// the detailed router's per-net search appended the committed wires and
// vias to the net's output lists, with no suppression saying why.
package detail

type Segment struct{ Lo, Hi, Layer int }

type Via struct{ X, Y, Layer int }

type cell struct{ x, y, l int }

type routeTask struct {
	wires []Segment
	vias  []Via
}

type searchCtx struct{ rev []cell }

type Router struct{}

func (r *Router) routeNet(sc *searchCtx, t *routeTask, paths [][]cell) {
	for _, path := range paths {
		r.commitPath(sc, t, path)
	}
}

func (r *Router) commitPath(sc *searchCtx, t *routeTask, path []cell) {
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		if a.l != b.l {
			lo := a.l
			if b.l < lo {
				lo = b.l
			}
			t.vias = append(t.vias, Via{X: a.x, Y: a.y, Layer: lo + 1}) // catch: hotalloc
			continue
		}
		t.wires = append(t.wires, Segment{Lo: a.x, Hi: b.x, Layer: a.l}) // catch: hotalloc
	}
}

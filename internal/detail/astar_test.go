package detail

import (
	"container/heap"
	"math/rand"
	"testing"
	"unsafe"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
)

// TestArenaEntrySizes pins the search arena's two per-cell records at
// 12 bytes: integer costs are what keep them there, and every pooled
// arena scales with them.
func TestArenaEntrySizes(t *testing.T) {
	if s := unsafe.Sizeof(nodeState{}); s != 12 {
		t.Errorf("nodeState is %d bytes, want 12", s)
	}
	if s := unsafe.Sizeof(heapEntry{}); s != 12 {
		t.Errorf("heapEntry is %d bytes, want 12", s)
	}
}

// refHeap is the cellHeap sift-down as it was with float64 priorities
// and a branch per child: the reference the branch-free pop must match
// pop for pop.
type refHeap struct {
	e []refEntry
}

type refEntry struct {
	prio float64
	idx  int32
	pos  uint32
}

func (h *refHeap) push(i int, pos uint32, p float64) {
	h.e = append(h.e, refEntry{})
	j := len(h.e) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if h.e[parent].prio <= p {
			break
		}
		h.e[j] = h.e[parent]
		j = parent
	}
	h.e[j] = refEntry{prio: p, idx: int32(i), pos: pos}
}

func (h *refHeap) pop() (int, uint32, float64) {
	top := h.e[0]
	last := len(h.e) - 1
	v := h.e[last]
	h.e = h.e[:last]
	j := 0
	for {
		l, rr := 2*j+1, 2*j+2
		small, sp := j, v.prio
		if l < last && h.e[l].prio < sp {
			small, sp = l, h.e[l].prio
		}
		if rr < last && h.e[rr].prio < sp {
			small, sp = rr, h.e[rr].prio
		}
		if small == j {
			break
		}
		h.e[j] = h.e[small]
		j = small
	}
	if last > 0 {
		h.e[j] = v
	}
	return int(top.idx), top.pos, top.prio
}

// TestHeapMatchesReference drives cellHeap and refHeap through the same
// random push/pop sequences of small priorities, so most entries tie,
// and requires identical pop sequences: the same entry, not just the
// same priority. Some sequences push only at or above the last popped
// priority, as A* with a consistent heuristic does.
func TestHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 400; trial++ {
		var got cellHeap
		var want refHeap
		span := []int32{1, 2, 3, 8, 64}[trial%5]
		pushP := 0.35 + 0.3*rng.Float64()
		monotone := trial%2 == 1
		var floor int32
		next := 0
		for op := 0; op < 3000; op++ {
			if got.len() != len(want.e) {
				t.Fatalf("trial %d op %d: len %d, reference %d", trial, op, got.len(), len(want.e))
			}
			if got.len() == 0 || rng.Float64() < pushP {
				p := rng.Int31n(span)
				if monotone {
					p += floor
				}
				pos := rng.Uint32()
				got.push(next, pos, p)
				want.push(next, pos, float64(p))
				next++
				continue
			}
			gi, gpos, gp := got.pop()
			wi, wpos, wp := want.pop()
			if gi != wi || gpos != wpos || float64(gp) != wp {
				t.Fatalf("trial %d op %d: pop (%d, %d, %d), reference (%d, %d, %v)",
					trial, op, gi, gpos, gp, wi, wpos, wp)
			}
			floor = gp
		}
	}
}

// stepCost is eq. (10)'s cost of one move from a to b, written from the
// paper's terms independently of the router's tables; ok is false for a
// move a hard constraint forbids (vertical routing on a stitching line,
// a via on one away from the net's pins).
func stepCost(f *grid.Fabric, cfg Config, pins pinSet, a, b cell) (cost int, ok bool) {
	horiz := f.LayerDir(a.l+1) == geom.Horizontal
	stitch := cfg.StitchAware
	switch {
	case a.y == b.y && a.l == b.l:
		cost = 1
		if !horiz {
			cost = 2
		}
		return cost, true
	case a.x == b.x && a.l == b.l:
		if f.IsStitchCol(a.x) {
			return 0, false
		}
		cost = 1
		if horiz {
			cost = 2
		}
		if stitch && f.InEscape(a.x) {
			cost += cfg.Gamma
		}
		return cost, true
	default:
		if f.IsStitchCol(a.x) && !pins.has(a.x, a.y) {
			return 0, false
		}
		cost = 2
		if stitch {
			switch {
			case f.IsStitchCol(a.x):
				cost += 2 * cfg.Beta
			case f.InSUR(a.x):
				cost += cfg.Beta
			}
			if f.InEscape(a.x) {
				cost += cfg.Gamma
			}
		}
		return cost, true
	}
}

// dijkItem and dijkHeap are the plain Dijkstra's open list.
type dijkItem struct {
	c cell
	d int
}

type dijkHeap []dijkItem

func (h dijkHeap) Len() int           { return len(h) }
func (h dijkHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h dijkHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *dijkHeap) Push(x any)        { *h = append(*h, x.(dijkItem)) }
func (h *dijkHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// dijkstra is the cheapest cost from any source to any target inside
// win, moving only onto cells free for net id, with no heuristic and no
// expansion cap; ok is false when no target is reachable.
func dijkstra(r *Router, id int32, pins pinSet, src, targets []cell, win geom.Rect) (int, bool) {
	in := func(c cell) bool {
		return c.x >= win.X0 && c.x <= win.X1 && c.y >= win.Y0 && c.y <= win.Y1 && c.l >= 0 && c.l < r.L
	}
	isTarget := map[cell]bool{}
	for _, c := range targets {
		if in(c) {
			isTarget[c] = true
		}
	}
	dist := map[cell]int{}
	var open dijkHeap
	for _, c := range src {
		if in(c) {
			dist[c] = 0
			heap.Push(&open, dijkItem{c, 0})
		}
	}
	for open.Len() > 0 {
		it := heap.Pop(&open).(dijkItem)
		if it.d > dist[it.c] {
			continue
		}
		if isTarget[it.c] {
			return it.d, true
		}
		a := it.c
		for _, b := range []cell{{a.x + 1, a.y, a.l}, {a.x - 1, a.y, a.l}, {a.x, a.y + 1, a.l},
			{a.x, a.y - 1, a.l}, {a.x, a.y, a.l + 1}, {a.x, a.y, a.l - 1}} {
			if !in(b) || !r.cellFree(b.x, b.y, b.l, id) {
				continue
			}
			w, ok := stepCost(r.f, r.cfg, pins, a, b)
			if !ok {
				continue
			}
			if d, seen := dist[b]; !seen || it.d+w < d {
				dist[b] = it.d + w
				heap.Push(&open, dijkItem{b, it.d + w})
			}
		}
	}
	return 0, false
}

// TestAstarMatchesDijkstra is the search's soundness gate: on small
// random fabrics with random blockages, windows, weights and pin sets,
// every path astar returns is legal, lies in the window, and costs
// exactly what a plain Dijkstra over the same window, moves and
// integer costs finds; and when astar fails (always below
// maxExpansions here), Dijkstra finds no path either.
func TestAstarMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	found, failed := 0, 0
	for trial := 0; trial < 400; trial++ {
		f := grid.New(6+rng.Intn(40), 6+rng.Intn(30), 1+rng.Intn(4))
		cfg := DefaultConfig(rng.Intn(3) != 0)
		if rng.Intn(2) == 0 {
			cfg.Beta, cfg.Gamma = rng.Intn(21), rng.Intn(8)
		}
		r := held(NewRouter(f, cfg))
		rndCell := func() cell { return cell{rng.Intn(r.X), rng.Intn(r.Y), rng.Intn(r.L)} }

		// Blockages: cells of other nets, and cells of the net itself,
		// which its searches may cross.
		const id = 3
		block := rng.Float64() * 0.45
		for i := range r.occ {
			switch q := rng.Float64(); {
			case q < block:
				r.occ[i] = int32(1 + rng.Intn(6)) // nets 0..5, 3 among them
			case q < block+0.03:
				r.occ[i] = id + 1
			}
		}
		var pins []geom.Point
		for k := 1 + rng.Intn(3); k > 0; k-- {
			c := rndCell()
			pins = append(pins, geom.Point{X: c.x, Y: c.y})
		}
		// A pin on a stitching line exercises the pin-via exception.
		if rng.Intn(2) == 0 {
			pins = append(pins, geom.Point{X: f.StitchPitch * rng.Intn((r.X-1)/f.StitchPitch+1), Y: rng.Intn(r.Y)})
		}
		net := mkNet(id, pins...)
		task := newTask(&netlist.Circuit{Fabric: f, Nets: []*netlist.Net{net}}, nil, 0)
		var src, targets []cell
		for k := 1 + rng.Intn(3); k > 0; k-- {
			src = append(src, rndCell())
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			targets = append(targets, rndCell())
		}
		win := f.Bounds()
		if rng.Intn(2) == 0 {
			box := extendBBox(cellBBox(src), targets)
			win = box.Expand(rng.Intn(6)).Intersect(f.Bounds())
			// Sometimes shave the window so a source or target falls out.
			if rng.Intn(3) == 0 && win.X1 > win.X0 {
				win.X1--
			}
		}

		exp0 := r.expansions
		path, ok := r.astar(task, src, targets, win)
		if r.expansions-exp0 >= maxExpansions {
			t.Fatalf("trial %d: hit the expansion cap on a small fabric", trial)
		}
		want, reach := dijkstra(r, id, task.pinCells, src, targets, win)
		if !ok {
			failed++
			if reach {
				t.Fatalf("trial %d: astar found no path, Dijkstra found one of cost %d", trial, want)
			}
			continue
		}
		found++
		if !reach {
			t.Fatalf("trial %d: astar found a path, Dijkstra none", trial)
		}
		cost := 0
		for k, c := range path {
			if !win.Contains(geom.Point{X: c.x, Y: c.y}) || c.l < 0 || c.l >= r.L {
				t.Fatalf("trial %d: path cell %v outside window %v", trial, c, win)
			}
			if k == 0 {
				continue
			}
			a := path[k-1]
			if d := abs(c.x-a.x) + abs(c.y-a.y) + abs(c.l-a.l); d != 1 {
				t.Fatalf("trial %d: path step %v → %v is not a unit move", trial, a, c)
			}
			if !r.cellFree(c.x, c.y, c.l, id) {
				t.Fatalf("trial %d: path enters blocked cell %v", trial, c)
			}
			w, legal := stepCost(f, cfg, task.pinCells, a, c)
			if !legal {
				t.Fatalf("trial %d: path step %v → %v breaks a hard constraint", trial, a, c)
			}
			cost += w
		}
		if !containsCell(src, path[0]) || !containsCell(targets, path[len(path)-1]) {
			t.Fatalf("trial %d: path runs %v → %v, not source to target", trial, path[0], path[len(path)-1])
		}
		if cost != want {
			t.Fatalf("trial %d: astar path costs %d, Dijkstra's optimum is %d", trial, cost, want)
		}
	}
	// Both branches must be exercised, or the gate checks little.
	if found < 50 || failed < 20 {
		t.Errorf("found %d, failed %d of 400 searches: the random fabrics no longer cover both outcomes", found, failed)
	}
}

func containsCell(cs []cell, c cell) bool {
	for _, d := range cs {
		if d == c {
			return true
		}
	}
	return false
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Package global re-creates commit c18208f's bug: the global A* seeded
// its priority heap by ranging over the source-tile map, so equal-cost
// ties popped in map order and reroutes differed run to run.
package global

import "sort"

type TilePoint struct{ TX, TY int }

type fHeap struct {
	states []int
	prio   []float64
}

func newFHeap() *fHeap { return &fHeap{} }

func (h *fHeap) push(state int, p float64) {
	h.states = append(h.states, state)
	h.prio = append(h.prio, p)
}

const dirNone = 2

type Router struct{ tw int }

// astar is the buggy seeding.
func (r *Router) astar(sources map[TilePoint]bool, target TilePoint) []float64 {
	tw := r.tw
	const nd = 3
	h := func(v int) float64 { return float64(v - target.TX) }
	dist := make([]float64, tw*tw*nd)
	pq := newFHeap()
	for s := range sources {
		v := s.TY*tw + s.TX
		st := v*nd + dirNone
		dist[st] = 0      // catch: nondeterm
		pq.push(st, h(v)) // catch: nondeterm
	}
	return dist
}

// astarFixed is the commit's fix: sources pushed in sorted order.
func (r *Router) astarFixed(sources map[TilePoint]bool, target TilePoint) []float64 {
	tw := r.tw
	const nd = 3
	h := func(v int) float64 { return float64(v - target.TX) }
	dist := make([]float64, tw*tw*nd)
	srcs := make([]int, 0, len(sources))
	for s := range sources {
		srcs = append(srcs, s.TY*tw+s.TX)
	}
	sort.Ints(srcs)
	pq := newFHeap()
	for _, v := range srcs {
		st := v*nd + dirNone
		dist[st] = 0
		pq.push(st, h(v))
	}
	return dist
}

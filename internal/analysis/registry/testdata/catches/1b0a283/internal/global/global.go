// Package global re-creates the scratch mutation used to check hotalloc
// in commit 1b0a283: the global A* builds its path in a fresh slice per
// search instead of the arena's path buffer.
package global

type TilePoint struct{ TX, TY int }

type tileState struct {
	dist  float64
	prev  int32
	stamp uint32
}

type searchArena struct {
	states []tileState
	path   []TilePoint
}

type Router struct {
	tw    int
	arena searchArena
}

// astar is the mutated path reconstruction.
func (r *Router) astar(goalState int) []TilePoint {
	tw := r.tw
	const nd = 3
	a := &r.arena
	path := make([]TilePoint, 0, 16)
	for st := goalState; st != -1; st = int(a.states[st].prev) {
		v := st / nd
		path = append(path, TilePoint{TX: v % tw, TY: v / tw}) // catch: hotalloc
	}
	return path
}

// astarArena is the committed version: the path reuses the arena.
func (r *Router) astarArena(goalState int) []TilePoint {
	tw := r.tw
	const nd = 3
	a := &r.arena
	path := a.path[:0]
	for st := goalState; st != -1; st = int(a.states[st].prev) {
		v := st / nd
		path = append(path, TilePoint{TX: v % tw, TY: v / tw})
	}
	a.path = path
	return path
}

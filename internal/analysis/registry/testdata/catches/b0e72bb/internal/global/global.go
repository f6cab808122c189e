// Package global re-creates the global-router findings fixed in commit
// b0e72bb. RouteNet appended its pin tiles to the plan in map order
// before sorting them, and patternRoute drew its source tile from the
// source map, so the L path it returned, and the plan's edges built
// from it, depended on map order.
//
// RouteNet's nearest-tile scan also ranged over the inTree map; the
// commit replaced it with an ordered treeList. With strict <, that scan
// picks the same bestIdx in any order, so no analyzer flags it.
package global

import "sort"

type TilePoint struct{ TX, TY int }

type TileEdge struct{ A, B TilePoint }

type Pin struct{ X, Y int }

type NetPlan struct {
	PinTiles []TilePoint
	Edges    []TileEdge
}

type Router struct {
	tile    int
	pattern bool
}

// RouteNet is the buggy version.
func (r *Router) RouteNet(pins []Pin) *NetPlan {
	np := &NetPlan{}
	tileSet := make(map[TilePoint]bool, len(pins))
	for _, p := range pins {
		tileSet[r.tileOf(p)] = true
	}
	for tp := range tileSet {
		np.PinTiles = append(np.PinTiles, tp) // catch: nondeterm
	}
	sort.Slice(np.PinTiles, func(i, j int) bool { return less(np.PinTiles[i], np.PinTiles[j]) })
	if len(np.PinTiles) <= 1 {
		return np
	}
	targets := append([]TilePoint(nil), np.PinTiles...)
	inTree := map[TilePoint]bool{targets[0]: true}
	remaining := append([]TilePoint(nil), targets[1:]...)
	var edges []TileEdge
	for len(remaining) > 0 {
		bestIdx, bestD := -1, 1<<30
		for i, tp := range remaining {
			for q := range inTree {
				d := dist(tp, q)
				if d < bestD {
					bestD, bestIdx = d, i
				}
			}
		}
		target := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		if inTree[target] {
			continue
		}
		var path []TilePoint
		if r.pattern {
			path = r.patternRoute(inTree, target)
		}
		if path == nil {
			path = []TilePoint{target}
		}
		for _, tp := range path {
			inTree[tp] = true
		}
		edges = append(edges, pathToEdges(path)...)
	}
	np.Edges = edges // catch: nondeterm
	return np
}

func (r *Router) patternRoute(sources map[TilePoint]bool, target TilePoint) []TilePoint {
	var src TilePoint
	best := 1 << 30
	for s := range sources {
		d := dist(s, target)
		if d < best || (d == best && less(s, src)) {
			best = d
			src = s
		}
	}
	if best == 0 {
		return []TilePoint{target}
	}
	return lPath(src, target)
}

// RouteNetFixed is the commit's fix: pin tiles are collected into a
// local and sorted before the plan sees them, the nearest-tile scan
// walks treeList, and patternRouteFixed sorts its source candidates.
func (r *Router) RouteNetFixed(pins []Pin) *NetPlan {
	np := &NetPlan{}
	tileSet := make(map[TilePoint]bool, len(pins))
	for _, p := range pins {
		tileSet[r.tileOf(p)] = true
	}
	tiles := make([]TilePoint, 0, len(tileSet))
	for tp := range tileSet {
		tiles = append(tiles, tp)
	}
	sort.Slice(tiles, func(i, j int) bool { return less(tiles[i], tiles[j]) })
	np.PinTiles = tiles
	if len(np.PinTiles) <= 1 {
		return np
	}
	targets := append([]TilePoint(nil), np.PinTiles...)
	inTree := map[TilePoint]bool{targets[0]: true}
	treeList := []TilePoint{targets[0]}
	remaining := append([]TilePoint(nil), targets[1:]...)
	var edges []TileEdge
	for len(remaining) > 0 {
		bestIdx, bestD := -1, 1<<30
		for i, tp := range remaining {
			for _, q := range treeList {
				d := dist(tp, q)
				if d < bestD {
					bestD, bestIdx = d, i
				}
			}
		}
		target := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		if inTree[target] {
			continue
		}
		var path []TilePoint
		if r.pattern {
			path = r.patternRouteFixed(inTree, target)
		}
		if path == nil {
			path = []TilePoint{target}
		}
		for _, tp := range path {
			if !inTree[tp] {
				inTree[tp] = true
				treeList = append(treeList, tp)
			}
		}
		edges = append(edges, pathToEdges(path)...)
	}
	np.Edges = edges
	return np
}

func (r *Router) patternRouteFixed(sources map[TilePoint]bool, target TilePoint) []TilePoint {
	srcs := make([]TilePoint, 0, len(sources))
	for s := range sources {
		srcs = append(srcs, s)
	}
	sort.Slice(srcs, func(i, j int) bool { return less(srcs[i], srcs[j]) })
	var src TilePoint
	best := 1 << 30
	for _, s := range srcs {
		if d := dist(s, target); d < best {
			best = d
			src = s
		}
	}
	if best == 0 {
		return []TilePoint{target}
	}
	return lPath(src, target)
}

func (r *Router) tileOf(p Pin) TilePoint { return TilePoint{p.X / r.tile, p.Y / r.tile} }

func lPath(src, dst TilePoint) []TilePoint {
	return []TilePoint{src, {TX: dst.TX, TY: src.TY}, dst}
}

func pathToEdges(path []TilePoint) []TileEdge {
	var out []TileEdge
	for i := 1; i < len(path); i++ {
		out = append(out, TileEdge{path[i-1], path[i]})
	}
	return out
}

func less(a, b TilePoint) bool {
	if a.TX != b.TX {
		return a.TX < b.TX
	}
	return a.TY < b.TY
}

func dist(a, b TilePoint) int { return abs(a.TX-b.TX) + abs(a.TY-b.TY) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

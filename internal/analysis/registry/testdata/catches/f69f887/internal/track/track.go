// Package track re-creates the track.trackBounds bug fixed in commit
// f69f887: the constraint-graph adjacency lists were built by ranging
// over the row map, so arc order differed run to run.
package track

import "sort"

type Arc struct {
	To     int
	Weight float64
}

type ivKey struct{ seg, row int }

type Span struct{ Lo, Hi int }

type Seg struct{ Span Span }

type Problem struct{ Segs []Seg }

// trackBounds is the buggy adjacency build.
func (p *Problem) trackBounds(seq []int, minSide bool) [][]Arc {
	ids, rows, pos, src, n := p.index(seq)
	adj := make([][]Arc, n+2)
	for r, segIdx := range rows {
		sort.Slice(segIdx, func(a, b int) bool { return pos[segIdx[a]] < pos[segIdx[b]] })
		if !minSide {
			for a, b := 0, len(segIdx)-1; a < b; a, b = a+1, b-1 {
				segIdx[a], segIdx[b] = segIdx[b], segIdx[a]
			}
		}
		prev := -1
		for _, i := range segIdx {
			v := ids[ivKey{i, r}]
			if prev == -1 {
				adj[src] = append(adj[src], Arc{To: v, Weight: 1}) // catch: nondeterm
			} else {
				adj[prev] = append(adj[prev], Arc{To: v, Weight: 1}) // catch: nondeterm
			}
			prev = v
		}
	}
	return adj
}

// trackBoundsFixed is the commit's fix: rows visited in sorted key order.
func (p *Problem) trackBoundsFixed(seq []int, minSide bool) [][]Arc {
	ids, rows, pos, src, n := p.index(seq)
	adj := make([][]Arc, n+2)
	rowKeys := make([]int, 0, len(rows))
	for r := range rows {
		rowKeys = append(rowKeys, r)
	}
	sort.Ints(rowKeys)
	for _, r := range rowKeys {
		segIdx := rows[r]
		sort.Slice(segIdx, func(a, b int) bool { return pos[segIdx[a]] < pos[segIdx[b]] })
		if !minSide {
			for a, b := 0, len(segIdx)-1; a < b; a, b = a+1, b-1 {
				segIdx[a], segIdx[b] = segIdx[b], segIdx[a]
			}
		}
		prev := -1
		for _, i := range segIdx {
			v := ids[ivKey{i, r}]
			if prev == -1 {
				adj[src] = append(adj[src], Arc{To: v, Weight: 1})
			} else {
				adj[prev] = append(adj[prev], Arc{To: v, Weight: 1})
			}
			prev = v
		}
	}
	return adj
}

// index numbers the intervals and groups them by row.
func (p *Problem) index(seq []int) (map[ivKey]int, map[int][]int, map[int]int, int, int) {
	ids := make(map[ivKey]int)
	rows := map[int][]int{}
	pos := make(map[int]int, len(seq))
	for ordinal, i := range seq {
		pos[i] = ordinal
	}
	n := 0
	for i, s := range p.Segs {
		for r := s.Span.Lo; r <= s.Span.Hi; r++ {
			ids[ivKey{i, r}] = n
			n++
			rows[r] = append(rows[r], i)
		}
	}
	return ids, rows, pos, n, n
}

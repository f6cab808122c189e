// L-shape pairing: which sweep rectangles merge into two-rectangle L
// shots, and the maximum matching that picks a best disjoint set of
// merges. Every matched pair saves exactly one shot, so maximizing the
// matching minimizes the shot count over this merge family — the
// rectangle-pairing view of arXiv 1402.2420's concave-vertex matching.
package fracture

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"stitchroute/internal/geom"
	"stitchroute/internal/ilp"
	"stitchroute/internal/matching"
)

// lMergeable reports whether the union of two sweep rectangles is an
// L-shape shot. In a horizontal sweep decomposition two distinct
// rectangles can only touch across a row boundary, so the condition is:
// vertically adjacent, x-spans sharing at least one column, and exactly
// one vertical side aligned (both aligned would be a plain rectangle,
// which the sweep already merged; neither aligned is an 8-corner T/Z).
func lMergeable(a, b geom.Rect) bool {
	if a.Y1+1 != b.Y0 && b.Y1+1 != a.Y0 {
		return false
	}
	if a.X0 > b.X1 || b.X0 > a.X1 {
		return false
	}
	return (a.X0 == b.X0) != (a.X1 == b.X1)
}

// matcher holds the pairing graph and the matching scratch of one
// layer; Fracture reuses it across layers. Graph nodes are sweep
// rectangle indices, and every per-node table is a slice indexed by
// them.
type matcher struct {
	pairing  []int    // pairing[i] = partner of rect i, -1 if single
	rowStart []int    // rowStart[y-minY] = first rect with Y0 >= y
	edges    [][2]int // candidate edges (i, j), i < j, in discovery order
	adjOff   []int    // adjacency of i is adj[adjOff[i]:adjOff[i+1]]
	adj      []int
	fill     []int
	seen     []bool
	color    []int8 // two-coloring: 0 = unvisited, 1 or 2
	pos      []int  // node -> position in its side or variable order
	queue    []int
	nodes    []int
	sideA    []int
	sideB    []int
	cost     []int64
	costRows [][]int64
	nbrs     []int
}

// grow returns buf resized to n elements, reusing its capacity.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func (m *matcher) neighbors(v int) []int { return m.adj[m.adjOff[v]:m.adjOff[v+1]] }

// matchLPairs builds the pairing graph over the sweep rectangles and
// records matched pairs in pairing (pairing[i] = j, mutual), which the
// caller fills with -1. Components are solved exactly where the size
// caps allow — bipartite ones with the Hungarian assignment, odd ones
// with branch and bound — and greedily beyond the caps; res accumulates
// the solver statistics.
func (m *matcher) matchLPairs(ctx context.Context, rects []geom.Rect, pairing []int, res *Result) error {
	n := len(rects)
	m.pairing = pairing
	if n < 2 {
		return nil
	}

	// Candidate edges: rects is sorted by (Y0, X0), so the rectangles
	// starting on one row are a contiguous index range; probe each
	// rectangle's ending boundary against the range of the next row.
	minY, maxY := rects[0].Y0, rects[n-1].Y0
	m.rowStart = grow(m.rowStart, maxY-minY+2)
	for y, i := minY, 0; y <= maxY+1; y++ {
		for i < n && rects[i].Y0 < y {
			i++
		}
		m.rowStart[y-minY] = i
	}
	// The rectangles starting on one row are disjoint on that row, so
	// ordered by X0 they are ordered by X1 too: binary-search the first
	// one reaching r's columns and stop past them.
	m.edges = m.edges[:0]
	for i, r := range rects {
		y := r.Y1 + 1
		if y > maxY {
			continue
		}
		lo, hi := m.rowStart[y-minY], m.rowStart[y-minY+1]
		k, _ := slices.BinarySearchFunc(rects[lo:hi], r.X0, func(c geom.Rect, x int) int { return cmp.Compare(c.X1, x) })
		for j := lo + k; j < hi && rects[j].X0 <= r.X1; j++ {
			if lMergeable(r, rects[j]) {
				m.edges = append(m.edges, [2]int{i, j})
			}
		}
	}
	// Adjacency in compressed form, filled in discovery order so each
	// list comes out ascending: the lower neighbors (found while their
	// own rows were probed) precede the higher ones.
	m.adjOff = grow(m.adjOff, n+1)
	clear(m.adjOff)
	for _, e := range m.edges {
		m.adjOff[e[0]+1]++
		m.adjOff[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		m.adjOff[i+1] += m.adjOff[i]
	}
	m.adj = grow(m.adj, 2*len(m.edges))
	m.fill = grow(m.fill, n)
	copy(m.fill, m.adjOff[:n])
	for _, e := range m.edges {
		m.adj[m.fill[e[0]]] = e[1]
		m.fill[e[0]]++
		m.adj[m.fill[e[1]]] = e[0]
		m.fill[e[1]]++
	}

	// Connected components over the pairing graph, in index order.
	m.seen = grow(m.seen, n)
	clear(m.seen)
	m.color = grow(m.color, n)
	clear(m.color)
	m.pos = grow(m.pos, n)
	for i := 0; i < n; i++ {
		if m.seen[i] || m.adjOff[i] == m.adjOff[i+1] {
			continue
		}
		// Breadth-first: m.nodes is the queue, read from the front.
		m.seen[i] = true
		m.nodes = append(m.nodes[:0], i)
		for k := 0; k < len(m.nodes); k++ {
			for _, u := range m.neighbors(m.nodes[k]) {
				if !m.seen[u] {
					m.seen[u] = true
					m.nodes = append(m.nodes, u)
				}
			}
		}
		slices.Sort(m.nodes)
		if err := m.matchComponent(ctx, res); err != nil {
			return err
		}
	}
	return nil
}

// matchComponent maximum-matches the component in m.nodes and writes
// the result into m.pairing.
func (m *matcher) matchComponent(ctx context.Context, res *Result) error {
	nodes := m.nodes
	if len(nodes) == 2 {
		m.pairing[nodes[0]] = nodes[1]
		m.pairing[nodes[1]] = nodes[0]
		return nil
	}
	if m.twoColor() {
		if len(nodes) <= maxHungarian {
			m.matchBipartite()
			return nil
		}
	} else if len(nodes) <= maxOddExact {
		return m.matchBnB(ctx, res)
	}
	res.GreedyComponents++
	m.matchGreedy()
	return nil
}

// twoColor attempts to 2-color the component; on success m.sideA and
// m.sideB hold the two color classes in ascending index order.
func (m *matcher) twoColor() bool {
	m.color[m.nodes[0]] = 1
	m.queue = append(m.queue[:0], m.nodes[0])
	for k := 0; k < len(m.queue); k++ {
		v := m.queue[k]
		for _, u := range m.neighbors(v) {
			if m.color[u] != 0 {
				if m.color[u] == m.color[v] {
					return false
				}
				continue
			}
			m.color[u] = 3 - m.color[v]
			m.queue = append(m.queue, u)
		}
	}
	m.sideA, m.sideB = m.sideA[:0], m.sideB[:0]
	for _, v := range m.nodes {
		if m.color[v] == 1 {
			m.sideA = append(m.sideA, v)
		} else {
			m.sideB = append(m.sideB, v)
		}
	}
	return true
}

// matchBipartite solves maximum matching on a bipartite component as a
// min-cost perfect assignment: pad both sides to equal size, charge 0
// for a real mergeable pair and 1 for anything else; the Hungarian
// minimum then uses as many real pairs as possible.
func (m *matcher) matchBipartite() {
	sideA, sideB := m.sideA, m.sideB
	n := max(len(sideA), len(sideB))
	for bi, v := range sideB {
		m.pos[v] = bi
	}
	m.cost = grow(m.cost, n*n)
	for i := range m.cost {
		m.cost[i] = 1
	}
	m.costRows = grow(m.costRows, n)
	for i := range m.costRows {
		m.costRows[i] = m.cost[i*n : (i+1)*n]
	}
	for ai, v := range sideA {
		for _, u := range m.neighbors(v) {
			m.costRows[ai][m.pos[u]] = 0
		}
	}
	assign, _ := matching.MinCostPerfect(m.costRows)
	for ai, bi := range assign {
		if ai < len(sideA) && bi < len(sideB) && m.costRows[ai][bi] == 0 {
			a, b := sideA[ai], sideB[bi]
			m.pairing[a] = b
			m.pairing[b] = a
		}
	}
}

// matchProblem is the branch-and-bound model for exact maximum matching
// on a small odd component: variables are the component's rectangles in
// index order; each is either covered by an earlier pair (cost 0), left
// single (cost 1 — one shot), or paired with a later unmatched neighbor
// (cost 1 — one shot for two rectangles). The minimum total cost is the
// component's minimum shot count.
type matchProblem struct {
	nbrs    [][]int // per variable: neighbor variables, ascending
	matched []bool  // by variable, maintained via Apply/Undo
}

// Candidate values: -2 = covered by an earlier pair, -1 = single,
// >= 0 = the partner variable of a new pair.
func (p *matchProblem) NumVars() int { return len(p.nbrs) }

func (p *matchProblem) Candidates(v int, dst []ilp.Candidate) []ilp.Candidate {
	if p.matched[v] {
		return append(dst, ilp.Candidate{Value: -2, Cost: 0})
	}
	for _, u := range p.nbrs[v] {
		if u > v && !p.matched[u] {
			dst = append(dst, ilp.Candidate{Value: u, Cost: 1})
		}
	}
	return append(dst, ilp.Candidate{Value: -1, Cost: 1})
}

func (p *matchProblem) Apply(v, val int) {
	if val >= 0 {
		p.matched[v] = true
		p.matched[val] = true
	}
}

func (p *matchProblem) Undo(v, val int) {
	if val >= 0 {
		p.matched[v] = false
		p.matched[val] = false
	}
}

// bnbNodeBudget bounds the branch-and-bound search per component. The
// cap exists only as a backstop: components at maxOddExact size stay far
// below it, so the matching remains exact in practice.
const bnbNodeBudget = 1 << 20

func (m *matcher) matchBnB(ctx context.Context, res *Result) error {
	nodes := m.nodes
	for vi, v := range nodes {
		m.pos[v] = vi
	}
	// nodes is ascending, so pos is monotone and each neighbor list
	// stays ascending when mapped to variables.
	m.nbrs = m.nbrs[:0]
	p := &matchProblem{
		nbrs:    make([][]int, len(nodes)),
		matched: make([]bool, len(nodes)),
	}
	for _, v := range nodes {
		for _, u := range m.neighbors(v) {
			m.nbrs = append(m.nbrs, m.pos[u])
		}
	}
	off := 0
	for vi, v := range nodes {
		deg := len(m.neighbors(v))
		p.nbrs[vi] = m.nbrs[off : off+deg]
		off += deg
	}
	sol := ilp.Solve(ctx, p, bnbNodeBudget)
	res.MatchNodes += sol.Nodes
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("fracture: %w", err)
	}
	if sol.Values == nil {
		// Cannot happen — every variable always has the single candidate —
		// but fall back to greedy rather than drop the component.
		res.GreedyComponents++
		m.matchGreedy()
		return nil
	}
	for vi, val := range sol.Values {
		if val >= 0 {
			a, b := nodes[vi], nodes[val]
			m.pairing[a] = b
			m.pairing[b] = a
		}
	}
	return nil
}

// matchGreedy is the deterministic fallback for oversized components:
// scan rectangles in index order and take the first available neighbor.
func (m *matcher) matchGreedy() {
	for _, v := range m.nodes {
		if m.pairing[v] >= 0 {
			continue
		}
		for _, u := range m.neighbors(v) {
			if m.pairing[u] < 0 {
				m.pairing[v] = u
				m.pairing[u] = v
				break
			}
		}
	}
}

// L-shape pairing: which sweep rectangles merge into two-rectangle L
// shots, and the maximum matching that picks a best disjoint set of
// merges. Every matched pair saves exactly one shot, so maximizing the
// matching minimizes the shot count over this merge family — the
// rectangle-pairing view of arXiv 1402.2420's concave-vertex matching.
package fracture

import (
	"cmp"
	"slices"

	"stitchroute/internal/geom"
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
	nodes    []int // the component being matched, ascending

	// Blossom search state, valid for the nodes of the current search.
	base    []int  // base of the blossom holding the node (itself if none)
	parent  []int  // tree parent of an odd or blossom node, -1 if none
	even    []bool // node is an even (outer) node of the tree
	inPath  []bool // commonBase scratch: bases on the path to the root
	inBloom []bool // bases inside the blossom being contracted
	queue   []int  // even nodes whose edges are still to scan
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
// records a maximum matching in pairing (pairing[i] = j, mutual), which
// the caller fills with -1.
func (m *matcher) matchLPairs(rects []geom.Rect, pairing []int) {
	n := len(rects)
	m.pairing = pairing
	if n < 2 {
		return
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
	m.matchGraph(n)
}

// matchGraph maximum-matches the graph on nodes 0..n-1 with the edges
// in m.edges into m.pairing, one connected component at a time.
func (m *matcher) matchGraph(n int) {
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
	m.base = grow(m.base, n)
	m.parent = grow(m.parent, n)
	m.even = grow(m.even, n)
	m.inPath = grow(m.inPath, n)
	m.inBloom = grow(m.inBloom, n)
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
		m.matchComponent()
	}
}

// matchComponent maximum-matches the component in m.nodes into
// m.pairing: an index-order greedy pass, then Edmonds' blossom search
// for an augmenting path from each node the greedy pass left single.
// One search per single node suffices: a node with no augmenting path
// gains none when the matching grows along another path.
func (m *matcher) matchComponent() {
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
	for _, root := range m.nodes {
		if m.pairing[root] >= 0 {
			continue
		}
		// Flip the augmenting path ending at the single node v.
		for v := m.augmentingPath(root); v >= 0; {
			p := m.parent[v]
			next := m.pairing[p]
			m.pairing[v], m.pairing[p] = p, v
			v = next
		}
	}
}

// augmentingPath grows an alternating tree from the single node root
// and returns the single node at the far end of an augmenting path (its
// path back to root runs through parent and pairing), or -1 if there is
// none. An edge between two even nodes closes an odd cycle, which is
// contracted into a blossom: every node in it becomes even.
func (m *matcher) augmentingPath(root int) int {
	for _, v := range m.nodes {
		m.base[v] = v
		m.parent[v] = -1
		m.even[v] = false
	}
	m.even[root] = true
	m.queue = append(m.queue[:0], root)
	for k := 0; k < len(m.queue); k++ {
		v := m.queue[k]
		for _, u := range m.neighbors(v) {
			switch {
			case m.base[u] == m.base[v] || m.pairing[v] == u:
				// Inside one blossom, or the matched edge into v.
			case m.even[u]:
				// Contract the odd cycle through v and u.
				b := m.commonBase(v, u)
				for _, w := range m.nodes {
					m.inBloom[w] = false
				}
				m.markBlossom(v, b, u)
				m.markBlossom(u, b, v)
				for _, w := range m.nodes {
					if m.inBloom[m.base[w]] {
						m.base[w] = b
						if !m.even[w] {
							m.even[w] = true
							m.queue = append(m.queue, w)
						}
					}
				}
			case m.parent[u] < 0:
				// u is new and odd; its partner, if any, joins as even.
				m.parent[u] = v
				w := m.pairing[u]
				if w < 0 {
					return u
				}
				m.even[w] = true
				m.queue = append(m.queue, w)
			}
		}
	}
	return -1
}

// commonBase returns the base of the nearest common even ancestor of
// the even nodes a and b in the alternating tree.
func (m *matcher) commonBase(a, b int) int {
	for _, v := range m.nodes {
		m.inPath[v] = false
	}
	for {
		a = m.base[a]
		m.inPath[a] = true
		if m.pairing[a] < 0 {
			break // the root
		}
		a = m.parent[m.pairing[a]]
	}
	for {
		b = m.base[b]
		if m.inPath[b] {
			return b
		}
		b = m.parent[m.pairing[b]]
	}
}

// markBlossom walks from the even node v up to the blossom base b,
// marking the bases on the way as inside the blossom. It points each
// even node's parent back toward child, the node across the closing
// edge, so an augmenting path can leave the blossom through any of its
// nodes.
func (m *matcher) markBlossom(v, b, child int) {
	for m.base[v] != b {
		w := m.pairing[v]
		m.inBloom[m.base[v]] = true
		m.inBloom[m.base[w]] = true
		m.parent[v] = child
		child = w
		v = m.parent[w]
	}
}

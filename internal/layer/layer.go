// Package layer implements stitch-aware layer assignment (§III-B).
//
// For every panel (a column or row of global tiles), the same-direction
// global segments are distributed over the k same-direction routing layers.
// A segment conflict graph is built with edge weights
//
//	w(v_i, v_j) = D_segment(v_i, v_j) + D_end(v_i, v_j)      (eq. 4)
//
// where D_segment is the maximum segment density over the rows where the
// two segments overlap and D_end the maximum line-end density over the rows
// where both have line ends (the line-end term applies to column panels
// only). Distributing segments uniformly is the maximum-cut k-coloring of
// this graph — equivalently, a k-coloring of minimum total monochromatic
// edge weight.
//
// Two heuristics are provided: the maximum-spanning-tree approach of [4]
// (color = tree depth mod k) and the paper's algorithm, which repeatedly
// extracts a maximum-total-vertex-weight k-colorable subset (exact on
// interval graphs via min-cost flow), colors it greedily, and merges the
// color groups into the accumulated groups with a minimum-weight perfect
// bipartite matching.
package layer

import (
	"context"
	"math/rand"

	"stitchroute/internal/geom"
	"stitchroute/internal/graph"
	"stitchroute/internal/ilp"
	"stitchroute/internal/interval"
	"stitchroute/internal/matching"
	"stitchroute/internal/plan"
)

// Algo selects the layer-assignment heuristic.
type Algo int

const (
	// MaxSpanningTree is the heuristic of [4]: maximum spanning tree,
	// colored by depth mod k.
	MaxSpanningTree Algo = iota
	// KColorableSubset is the paper's algorithm (§III-B).
	KColorableSubset
)

// Instance is one panel's layer-assignment problem: segments as intervals
// over panel rows, their line-end rows, and the conflict edges of eq. (4).
type Instance struct {
	Spans []geom.Interval // per segment: covered rows
	Ends  [][]int         // per segment: rows holding its line ends
	Edges []graph.Edge
}

// N returns the number of segments.
func (in *Instance) N() int { return len(in.Spans) }

// BuildInstance constructs the conflict graph for the given spans and
// line-end rows. withEnds enables the D_end term (column panels).
func BuildInstance(spans []geom.Interval, ends [][]int, withEnds bool) *Instance {
	in := &Instance{Spans: spans, Ends: ends}
	if len(spans) == 0 {
		return in
	}
	lo, hi := spans[0].Lo, spans[0].Hi
	for _, s := range spans {
		if s.Lo < lo {
			lo = s.Lo
		}
		if s.Hi > hi {
			hi = s.Hi
		}
	}
	nRows := hi - lo + 1
	segDen := make([]int, nRows)
	endDen := make([]int, nRows)
	for i, s := range spans {
		for r := s.Lo; r <= s.Hi; r++ {
			segDen[r-lo]++
		}
		for _, r := range ends[i] {
			endDen[r-lo]++
		}
	}
	endSet := make([]map[int]bool, len(spans))
	for i, e := range ends {
		endSet[i] = make(map[int]bool, len(e))
		for _, r := range e {
			endSet[i][r] = true
		}
	}
	for i := 0; i < len(spans); i++ {
		for j := i + 1; j < len(spans); j++ {
			ov := spans[i].Intersect(spans[j])
			if ov.Empty() {
				continue
			}
			w := 0
			for r := ov.Lo; r <= ov.Hi; r++ {
				if segDen[r-lo] > w {
					w = segDen[r-lo]
				}
			}
			if withEnds {
				de := 0
				for r := range endSet[i] {
					if endSet[j][r] && endDen[r-lo] > de {
						de = endDen[r-lo]
					}
				}
				w += de
			}
			in.Edges = append(in.Edges, graph.Edge{U: i, V: j, Weight: w})
		}
	}
	return in
}

// InstanceFromSegs builds the panel instance for a set of same-panel,
// same-direction global segments. Line ends are the span endpoints; the
// D_end term is used only for vertical (column-panel) segments.
func InstanceFromSegs(segs []*plan.GSeg) *Instance {
	spans := make([]geom.Interval, len(segs))
	ends := make([][]int, len(segs))
	withEnds := false
	for i, s := range segs {
		spans[i] = s.Span
		ends[i] = []int{s.Span.Lo, s.Span.Hi}
		if s.Dir == geom.Vertical {
			withEnds = true
		}
	}
	return BuildInstance(spans, ends, withEnds)
}

// Cost returns the total conflict weight of monochromatic edges — the
// layer-assignment cost compared in Table VI (lower is better).
func (in *Instance) Cost(colors []int) int64 {
	var c int64
	for _, e := range in.Edges {
		if colors[e.U] == colors[e.V] {
			c += int64(e.Weight)
		}
	}
	return c
}

// SegDensity returns the maximum and mean segment density over the panel's
// rows (Table V statistics).
func (in *Instance) SegDensity() (max float64, avg float64) {
	return density(in.Spans)
}

// EndDensity returns the maximum and mean line-end density over rows.
func (in *Instance) EndDensity() (max float64, avg float64) {
	var pts []geom.Interval
	for _, ends := range in.Ends {
		for _, r := range ends {
			pts = append(pts, geom.Interval{Lo: r, Hi: r})
		}
	}
	return density(pts)
}

func density(items []geom.Interval) (maxD, avg float64) {
	if len(items) == 0 {
		return 0, 0
	}
	lo, hi := items[0].Lo, items[0].Hi
	for _, s := range items {
		if s.Lo < lo {
			lo = s.Lo
		}
		if s.Hi > hi {
			hi = s.Hi
		}
	}
	den := make([]int, hi-lo+1)
	for _, s := range items {
		for r := s.Lo; r <= s.Hi; r++ {
			den[r-lo]++
		}
	}
	sum := 0
	for _, d := range den {
		if float64(d) > maxD {
			maxD = float64(d)
		}
		sum += d
	}
	return maxD, float64(sum) / float64(len(den))
}

// Assign colors the instance with the selected heuristic, returning a
// color in 0..k-1 per segment.
func Assign(in *Instance, k int, algo Algo) []int {
	if algo == MaxSpanningTree {
		return assignMST(in, k)
	}
	return assignKColorable(in, k)
}

// assignMST is the heuristic of [4]: build a maximum spanning forest on
// the conflict graph and color each vertex by its tree depth mod k, so
// adjacent (heavy) tree edges always cut.
func assignMST(in *Instance, k int) []int {
	forest := graph.MaxSpanningForest(in.N(), in.Edges)
	depths := graph.TreeDepths(in.N(), forest)
	colors := make([]int, in.N())
	for i, d := range depths {
		colors[i] = d % k
	}
	return colors
}

// assignKColorable is the paper's algorithm: extract maximum-vertex-weight
// k-colorable subsets, color each greedily, and merge color groups with a
// minimum-weight perfect matching on the k×k group bipartite graph.
func assignKColorable(in *Instance, k int) []int {
	n := in.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	remaining := make([]bool, n)
	for i := range remaining {
		remaining[i] = true
	}
	// adjacency weights for conflict lookups
	wAdj := make([]map[int]int64, n)
	for i := range wAdj {
		wAdj[i] = make(map[int]int64)
	}
	for _, e := range in.Edges {
		wAdj[e.U][e.V] += int64(e.Weight)
		wAdj[e.V][e.U] += int64(e.Weight)
	}

	groups := make([][]int, k) // accumulated color groups
	first := true
	nRemaining := n
	for nRemaining > 0 {
		// Vertex weight = total incident conflict weight on the remaining
		// graph (isolated remaining vertices get weight 1 so they are
		// still selected).
		items := make([]interval.Interval, 0, nRemaining)
		ids := make([]int, 0, nRemaining)
		for v := 0; v < n; v++ {
			if !remaining[v] {
				continue
			}
			var w int64 = 1
			for u, ew := range wAdj[v] {
				if remaining[u] {
					w += ew
				}
			}
			items = append(items, interval.Interval{Lo: in.Spans[v].Lo, Hi: in.Spans[v].Hi, Weight: w})
			ids = append(ids, v)
		}
		sel := interval.MaxWeightKColorable(items, k)
		if len(sel) == 0 {
			// Cannot happen for k >= 1 with positive weights; guard anyway.
			sel = []int{0}
		}
		sub := make([]interval.Interval, len(sel))
		for i, s := range sel {
			sub[i] = items[s]
		}
		subColors, ok := interval.GreedyColor(sub, k)
		if !ok {
			// The flow guarantees k-colorability; defensive fallback.
			subColors = make([]int, len(sub))
		}
		newGroups := make([][]int, k)
		for i, c := range subColors {
			v := ids[sel[i]]
			newGroups[c] = append(newGroups[c], v)
			remaining[v] = false
			nRemaining--
		}
		if first {
			groups = newGroups
			first = false
			continue
		}
		// Merge: cost[a][b] = conflict weight between accumulated group a
		// and new group b; min-weight perfect matching decides the merge.
		cost := make([][]int64, k)
		for a := 0; a < k; a++ {
			cost[a] = make([]int64, k)
			for b := 0; b < k; b++ {
				var w int64
				for _, u := range groups[a] {
					for _, v := range newGroups[b] {
						w += wAdj[u][v]
					}
				}
				cost[a][b] = w
			}
		}
		assign, _ := matching.MinCostPerfect(cost)
		for a := 0; a < k; a++ {
			groups[a] = append(groups[a], newGroups[assign[a]]...)
		}
	}
	for c, g := range groups {
		for _, v := range g {
			colors[v] = c
		}
	}
	return colors
}

// RandomInstance generates a random panel instance with the given number
// of segments over nRows rows — the experiment workload of Tables V–VI.
func RandomInstance(rng *rand.Rand, nSegs, nRows int) *Instance {
	spans := make([]geom.Interval, nSegs)
	ends := make([][]int, nSegs)
	for i := range spans {
		lo := rng.Intn(nRows)
		length := 1 + rng.Intn(nRows-lo)
		spans[i] = geom.Interval{Lo: lo, Hi: lo + length - 1}
		ends[i] = []int{spans[i].Lo, spans[i].Hi}
	}
	return BuildInstance(spans, ends, true)
}

// ExactAssign solves the max-cut k-coloring exactly by branch and bound
// (color symmetry broken by letting vertex i use at most one more color
// than seen so far). Exponential in the worst case; intended for small
// panels and for measuring the heuristics' optimality gap. It returns the
// coloring and whether the search completed within the node budget.
func ExactAssign(in *Instance, k int, nodeBudget int) ([]int, bool) {
	n := in.N()
	adj := make([][]graph.Edge, n)
	for _, e := range in.Edges {
		adj[e.U] = append(adj[e.U], e)
		adj[e.V] = append(adj[e.V], graph.Edge{U: e.V, V: e.U, Weight: e.Weight})
	}
	m := &exactModel{k: k, adj: adj, colors: make([]int, n)}
	for i := range m.colors {
		m.colors[i] = -1
	}
	res := ilp.Solve(context.TODO(), m, nodeBudget)
	if res.Values == nil {
		return Assign(in, k, KColorableSubset), false
	}
	return res.Values, res.Optimal
}

type exactModel struct {
	k      int
	adj    [][]graph.Edge
	colors []int
}

func (m *exactModel) NumVars() int { return len(m.colors) }

func (m *exactModel) Candidates(v int, dst []ilp.Candidate) []ilp.Candidate {
	maxUsed := -1
	for i := 0; i < v; i++ {
		if m.colors[i] > maxUsed {
			maxUsed = m.colors[i]
		}
	}
	limit := maxUsed + 1
	if limit >= m.k {
		limit = m.k - 1
	}
	for c := 0; c <= limit; c++ {
		cost := 0.0
		for _, e := range m.adj[v] {
			if e.V < v && m.colors[e.V] == c {
				cost += float64(e.Weight)
			}
		}
		dst = append(dst, ilp.Candidate{Value: c, Cost: cost})
	}
	return dst
}

func (m *exactModel) Apply(v, c int) { m.colors[v] = c }
func (m *exactModel) Undo(v, c int)  { m.colors[v] = -1 }

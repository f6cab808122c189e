// Package track implements short-polygon-avoiding track assignment
// (§III-C). Within a column panel (the vertical tracks between two
// stitching lines), every vertical global segment receives an exact track
// number per tile row; changing tracks between rows is a dogleg. A *bad
// end* — a segment line end on a stitch-unfriendly track whose attached
// horizontal connection crosses that stitching line — later becomes a
// short polygon, so the assignment must avoid them.
//
// Three algorithms are provided:
//
//   - Conventional: stitch-oblivious first-fit (the baseline router);
//     it may use the stitching-line track itself, and such segments are
//     ripped up, exactly as the paper's baseline does.
//   - GraphBased: the paper's heuristic — order segments (long segments
//     next to the stitching lines), split them into per-tile intervals,
//     bound each interval's feasible window [m, M] with longest paths over
//     the minimum/maximum track constraint graphs (dummy vertices push
//     windows out of SURs), then assign greedily left to right.
//   - ILPBased: an exact branch-and-bound search over the same
//     multicommodity-flow model (§III-C1), substituting for CPLEX. Bad
//     ends are hard-forbidden and the total dogleg cost is minimized.
package track

import (
	"sort"
	"time"

	"stitchroute/internal/geom"
	"stitchroute/internal/graph"
	"stitchroute/internal/ilp"
	"stitchroute/internal/plan"
)

// Algo selects the track-assignment algorithm.
type Algo int

const (
	// Conventional ignores stitching lines (baseline).
	Conventional Algo = iota
	// ILPBased solves the multicommodity-flow model exactly.
	ILPBased
	// GraphBased is the paper's constraint-graph heuristic.
	GraphBased
)

func (a Algo) String() string {
	switch a {
	case Conventional:
		return "conventional"
	case ILPBased:
		return "ilp"
	default:
		return "graph"
	}
}

// Problem is one (column panel, layer) track-assignment instance.
type Problem struct {
	// Width is the panel width in tracks; track 0 carries the left
	// stitching line and is unusable, tracks 1..Width-1 are usable.
	Width int
	// HasRightStitch is false for the die's ragged last panel, which has
	// no stitching line on its right boundary.
	HasRightStitch bool
	// SUREps is the stitch-unfriendly half-width in tracks.
	SUREps int
	// Segs are the vertical segments to place. Their Tracks, BadEnds and
	// Ripped fields are written by Solve.
	Segs []*plan.GSeg
}

// Stats summarizes one panel's assignment.
type Stats struct {
	Ripped   int // segments dropped (net must be routed directly)
	BadEnds  int // unavoidable bad ends left in the assignment
	Doglegs  int // total |Δtrack| over row transitions
	ILPNodes int // branch-and-bound nodes (ILPBased only)
}

// ILPNodeBudget and ILPDeadline bound the branch-and-bound search per
// panel. The search is exact when it completes within both budgets;
// otherwise the panel falls back to the graph heuristic (mirroring the
// paper, where CPLEX runs that exceed the time limit are reported as NA).
const (
	ILPNodeBudget = 2_000_000
	ILPDeadline   = 20 * time.Second
)

// Solve assigns tracks to every segment of the problem with the selected
// algorithm, mutating the segments' Tracks/BadEnds/Ripped fields.
func Solve(p *Problem, algo Algo) Stats {
	for _, s := range p.Segs {
		s.Tracks = nil
		s.BadEnds = 0
		s.Ripped = false
	}
	if len(p.Segs) == 0 {
		return Stats{}
	}
	switch algo {
	case Conventional:
		return p.solveConventional()
	case ILPBased:
		return p.solveILP()
	default:
		return p.solveGraph()
	}
}

// badEndAt reports whether placing the given end of s on track t creates a
// bad end.
func (p *Problem) badEndAt(s *plan.GSeg, loEnd bool, t int) bool {
	crossL, crossR := s.HiCrossL, s.HiCrossR
	if loEnd {
		crossL, crossR = s.LoCrossL, s.LoCrossR
	}
	if crossL && t >= 1 && t <= p.SUREps {
		return true
	}
	if crossR && p.HasRightStitch && t >= p.Width-p.SUREps {
		return true
	}
	return false
}

// countBadEnds tallies the bad ends of a completed segment assignment.
func (p *Problem) countBadEnds(s *plan.GSeg) int {
	if s.Tracks == nil {
		return 0
	}
	n := 0
	if p.badEndAt(s, true, s.Tracks[0]) {
		n++
	}
	if p.badEndAt(s, false, s.Tracks[len(s.Tracks)-1]) {
		n++
	}
	return n
}

func doglegCost(tracks []int) int {
	c := 0
	for i := 1; i < len(tracks); i++ {
		c += geom.Abs(tracks[i] - tracks[i-1])
	}
	return c
}

// fill sets a segment's tracks and accumulates stats.
func (p *Problem) finish(st *Stats) {
	for _, s := range p.Segs {
		if s.Tracks == nil {
			s.Ripped = true
			st.Ripped++
			continue
		}
		s.BadEnds = p.countBadEnds(s)
		st.BadEnds += s.BadEnds
		st.Doglegs += doglegCost(s.Tracks)
	}
}

// ---------------------------------------------------------------------
// Conventional (baseline) assignment: first-fit straight tracks over
// 0..Width-1 with no stitch awareness; segments landing on the stitching
// track are ripped up afterwards, as in the paper's baseline flow.

func (p *Problem) solveConventional() Stats {
	segs := byLengthDesc(p.Segs)
	occ := newOccupancy(p)
	for _, s := range segs {
		placed := false
		for t := 0; t < p.Width && !placed; t++ {
			if occ.freeRange(s.Span, t) {
				straight(s, t)
				occ.place(s.Span, t)
				placed = true
			}
		}
	}
	var st Stats
	for _, s := range p.Segs {
		if s.Tracks != nil && s.Tracks[0] == 0 {
			// Vertical wire on the stitching line: rip up.
			s.Tracks = nil
		}
	}
	p.finish(&st)
	return st
}

// ---------------------------------------------------------------------
// Graph-based heuristic (§III-C2).

func (p *Problem) solveGraph() Stats {
	seq := p.segOrder()
	allowBad := make([]bool, len(p.Segs))
	var m, M map[ivKey]int
	for {
		m = p.minTracks(seq, allowBad)
		M = p.maxTracks(seq, allowBad)
		changed := false
		for i, s := range p.Segs {
			if allowBad[i] {
				continue
			}
			for r := s.Span.Lo; r <= s.Span.Hi; r++ {
				k := ivKey{i, r}
				if m[k] > M[k] {
					// Window collapsed: bad ends for this segment are
					// unavoidable; drop its SUR constraints and retry.
					allowBad[i] = true
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}

	// Greedy left-to-right assignment within the [m, M] windows.
	occ := newOccupancy(p)
	last := map[int]int{} // per row: rightmost used track so far
	for _, i := range seq {
		s := p.Segs[i]
		rows := s.Span
		lo := make([]int, rows.Len())
		hi := make([]int, rows.Len())
		feasible := true
		for r := rows.Lo; r <= rows.Hi; r++ {
			k := ivKey{i, r}
			lb := m[k]
			if lt, ok := last[r]; ok && lt+1 > lb {
				lb = lt + 1
			}
			ub := M[k]
			if lb > ub {
				feasible = false
				break
			}
			lo[r-rows.Lo], hi[r-rows.Lo] = lb, ub
		}
		if !feasible {
			continue // ripped
		}
		// Prefer a straight assignment.
		tLo, tHi := 1, p.Width-1
		for j := range lo {
			if lo[j] > tLo {
				tLo = lo[j]
			}
			if hi[j] < tHi {
				tHi = hi[j]
			}
		}
		tracks := make([]int, rows.Len())
		if tLo <= tHi {
			for j := range tracks {
				tracks[j] = tLo
			}
		} else {
			// Dogleg: follow the previous row's track as closely as the
			// window allows.
			prev := lo[0]
			for j := range tracks {
				t := geom.Clamp(prev, lo[j], hi[j])
				tracks[j] = t
				prev = t
			}
		}
		s.Tracks = tracks
		for r := rows.Lo; r <= rows.Hi; r++ {
			t := tracks[r-rows.Lo]
			occ.placeOne(r, t)
			if lt, ok := last[r]; !ok || t > lt {
				last[r] = t
			}
		}
	}
	var st Stats
	p.finish(&st)
	return st
}

type ivKey struct {
	seg, row int
}

// segOrder returns the left-to-right processing order: longer segments
// first so they sit next to the stitching lines where doglegs give them
// the flexibility to escape SURs (§III-C2), alternating between the left
// and right side of the panel, with a preference for placing segments that
// do not overlap a just-placed long segment's end rows beside it.
func (p *Problem) segOrder() []int {
	byLen := make([]int, len(p.Segs))
	for i := range byLen {
		byLen[i] = i
	}
	sort.SliceStable(byLen, func(a, b int) bool {
		la, lb := p.Segs[byLen[a]].Span.Len(), p.Segs[byLen[b]].Span.Len()
		if la != lb {
			return la > lb
		}
		return byLen[a] < byLen[b]
	})
	left := make([]int, 0, len(byLen))
	right := make([]int, 0, len(byLen))
	for idx, i := range byLen {
		if idx%2 == 0 {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	// Prefer a non-overlapping neighbor next to each outermost segment.
	preferNonOverlap := func(side []int) {
		if len(side) < 2 {
			return
		}
		first := p.Segs[side[0]]
		if !first.Span.Overlaps(p.Segs[side[1]].Span) {
			return
		}
		for j := 2; j < len(side); j++ {
			if !first.Span.Overlaps(p.Segs[side[j]].Span) {
				side[1], side[j] = side[j], side[1]
				return
			}
		}
	}
	preferNonOverlap(left)
	preferNonOverlap(right)
	// seq = left block ++ reversed right block.
	seq := make([]int, 0, len(byLen))
	seq = append(seq, left...)
	for j := len(right) - 1; j >= 0; j-- {
		seq = append(seq, right[j])
	}
	return seq
}

// minTracks computes each interval's minimum feasible track m via a
// longest path over the minimum track constraint graph: consecutive
// same-row intervals are one track apart, and a dummy vertex (reached
// from the source with weight SUREps) pushes SUR-avoiding end intervals
// past the left stitch-unfriendly region.
func (p *Problem) minTracks(seq []int, allowBad []bool) map[ivKey]int {
	return p.trackBounds(seq, allowBad, true)
}

// maxTracks computes each interval's maximum feasible track M with the
// mirrored maximum track constraint graph.
func (p *Problem) maxTracks(seq []int, allowBad []bool) map[ivKey]int {
	return p.trackBounds(seq, allowBad, false)
}

func (p *Problem) trackBounds(seq []int, allowBad []bool, minSide bool) map[ivKey]int {
	// Node numbering: intervals first, then source, then dummy.
	ids := make(map[ivKey]int)
	var keys []ivKey
	rows := map[int][]int{} // row -> seg indices in seq order
	pos := make(map[int]int, len(seq))
	for ordinal, i := range seq {
		pos[i] = ordinal
	}
	for i, s := range p.Segs {
		for r := s.Span.Lo; r <= s.Span.Hi; r++ {
			k := ivKey{i, r}
			ids[k] = len(keys)
			keys = append(keys, k)
			rows[r] = append(rows[r], i)
		}
	}
	n := len(keys)
	src, dummy := n, n+1
	adj := make([][]graph.Arc, n+2)
	// Iterate rows in sorted order: building the adjacency lists in map
	// order would make the arc order (and thus anything sensitive to
	// edge ordering downstream) differ from run to run.
	rowKeys := make([]int, 0, len(rows))
	for r := range rows {
		rowKeys = append(rowKeys, r)
	}
	sort.Ints(rowKeys)
	for _, r := range rowKeys {
		segIdx := rows[r]
		sort.Slice(segIdx, func(a, b int) bool { return pos[segIdx[a]] < pos[segIdx[b]] })
		if !minSide {
			// Mirror: process right-to-left.
			for a, b := 0, len(segIdx)-1; a < b; a, b = a+1, b-1 {
				segIdx[a], segIdx[b] = segIdx[b], segIdx[a]
			}
		}
		prev := -1
		for _, i := range segIdx {
			v := ids[ivKey{i, r}]
			if prev == -1 {
				adj[src] = append(adj[src], graph.Arc{To: v, Weight: 1})
			} else {
				adj[prev] = append(adj[prev], graph.Arc{To: v, Weight: 1})
			}
			prev = v
		}
	}
	// Dummy edges: SUR avoidance for end intervals.
	useDummy := minSide || p.HasRightStitch
	if useDummy {
		for i, s := range p.Segs {
			if allowBad[i] {
				continue
			}
			for _, end := range []struct {
				row   int
				cross bool
			}{
				{s.Span.Lo, pick(minSide, s.LoCrossL, s.LoCrossR)},
				{s.Span.Hi, pick(minSide, s.HiCrossL, s.HiCrossR)},
			} {
				if end.cross {
					adj[dummy] = append(adj[dummy], graph.Arc{To: ids[ivKey{i, end.row}], Weight: 1})
				}
			}
		}
		adj[src] = append(adj[src], graph.Arc{To: dummy, Weight: p.SUREps})
	}
	dist, ok := graph.LongestPathDAG(adj, []int{src})
	if !ok {
		// The per-row chains follow one global order, so cycles are
		// impossible; guard regardless.
		dist = make([]int, n+2)
	}
	out := make(map[ivKey]int, n)
	for i, k := range keys {
		d := dist[i]
		if d == graph.NegInf {
			d = 1
		}
		if minSide {
			out[k] = d
		} else {
			out[k] = p.Width - d
		}
	}
	return out
}

func pick(minSide bool, l, r bool) bool {
	if minSide {
		return l
	}
	return r
}

// ---------------------------------------------------------------------
// ILP-based exact assignment.

// ilpModel adapts the panel to the branch-and-bound solver: one variable
// per segment (longest first); candidate values encode straight tracks
// (cost 0) and single-dogleg paths (cost |Δtrack|), with occupancy,
// non-crossing, and bad-end feasibility enforced during generation.
type ilpModel struct {
	p     *Problem
	order []int
	occ   *occupancy
	// placed[i] records the tracks committed for order[i] so far.
	placed [][]int
	nVars  int
}

// Candidate value encoding: straight t -> t; dogleg (t1, t2, switch after
// row offset s) -> Width + ((s*Width)+t1)*Width + t2.
func (m *ilpModel) encode(t1, t2, sw int) int {
	return m.p.Width + ((sw*m.p.Width)+t1)*m.p.Width + t2
}

func (m *ilpModel) decode(val int, span geom.Interval) []int {
	w := m.p.Width
	tracks := make([]int, span.Len())
	if val < w {
		for i := range tracks {
			tracks[i] = val
		}
		return tracks
	}
	v := val - w
	t2 := v % w
	v /= w
	t1 := v % w
	sw := v / w
	for i := range tracks {
		if i <= sw {
			tracks[i] = t1
		} else {
			tracks[i] = t2
		}
	}
	return tracks
}

func (m *ilpModel) NumVars() int { return m.nVars }

func (m *ilpModel) feasible(segIdx int, tracks []int) bool {
	s := m.p.Segs[segIdx]
	span := s.Span
	for j, t := range tracks {
		r := span.Lo + j
		if t < 1 || t > m.p.Width-1 || m.occ.usedAt(r, t) {
			return false
		}
	}
	if m.p.badEndAt(s, true, tracks[0]) || m.p.badEndAt(s, false, tracks[len(tracks)-1]) {
		return false
	}
	// Non-crossing against already-placed segments.
	for vi, prevTracks := range m.placed {
		if prevTracks == nil {
			continue
		}
		o := m.p.Segs[m.order[vi]]
		ov := span.Intersect(o.Span)
		if ov.Empty() {
			continue
		}
		sign := 0
		for r := ov.Lo; r <= ov.Hi; r++ {
			d := tracks[r-span.Lo] - prevTracks[r-o.Span.Lo]
			cur := 1
			if d < 0 {
				cur = -1
			}
			if sign == 0 {
				sign = cur
			} else if sign != cur {
				return false
			}
		}
	}
	return true
}

func (m *ilpModel) Candidates(v int, dst []ilp.Candidate) []ilp.Candidate {
	segIdx := m.order[v]
	s := m.p.Segs[segIdx]
	w := m.p.Width
	// Straight candidates, cost 0.
	for t := 1; t < w; t++ {
		tracks := m.decode(t, s.Span)
		if m.feasible(segIdx, tracks) {
			dst = append(dst, ilp.Candidate{Value: t, Cost: 0})
		}
	}
	if s.Span.Len() >= 2 {
		for sw := 0; sw < s.Span.Len()-1; sw++ {
			for t1 := 1; t1 < w; t1++ {
				for t2 := 1; t2 < w; t2++ {
					if t1 == t2 {
						continue
					}
					val := m.encode(t1, t2, sw)
					tracks := m.decode(val, s.Span)
					if m.feasible(segIdx, tracks) {
						dst = append(dst, ilp.Candidate{Value: val, Cost: float64(geom.Abs(t1 - t2))})
					}
				}
			}
		}
	}
	return dst
}

func (m *ilpModel) Apply(v int, value int) {
	segIdx := m.order[v]
	tracks := m.decode(value, m.p.Segs[segIdx].Span)
	m.placed[v] = tracks
	span := m.p.Segs[segIdx].Span
	for j, t := range tracks {
		m.occ.placeOne(span.Lo+j, t)
	}
}

func (m *ilpModel) Undo(v int, value int) {
	segIdx := m.order[v]
	span := m.p.Segs[segIdx].Span
	for j, t := range m.placed[v] {
		m.occ.removeOne(span.Lo+j, t)
	}
	m.placed[v] = nil
}

func (p *Problem) solveILP() Stats {
	order := make([]int, len(p.Segs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := p.Segs[order[a]].Span.Len(), p.Segs[order[b]].Span.Len()
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	m := &ilpModel{p: p, order: order, occ: newOccupancy(p), placed: make([][]int, len(order)), nVars: len(order)}
	res := ilp.SolveDeadline(m, ILPNodeBudget, ILPDeadline)
	if res.Values == nil {
		// Infeasible under hard bad-end constraints (or budget exceeded):
		// fall back to the graph heuristic, as the paper falls back to
		// reporting N/A for CPLEX timeouts.
		st := p.solveGraph()
		st.ILPNodes = res.Nodes
		return st
	}
	for v, val := range res.Values {
		s := p.Segs[m.order[v]]
		s.Tracks = m.decode(val, s.Span)
	}
	var st Stats
	p.finish(&st)
	st.ILPNodes = res.Nodes
	return st
}

// ---------------------------------------------------------------------
// Row panels: horizontal segments get conventional first-fit tracks; the
// stitch constraints do not apply to horizontal tracks (§III-C).

// SolveRow assigns the horizontal segments of one (row panel, layer) to
// the panel's height tracks by first fit, longest first. Returns the
// number of ripped segments.
func SolveRow(height int, segs []*plan.GSeg) int {
	for _, s := range segs {
		s.Tracks = nil
		s.Ripped = false
	}
	order := byLengthDesc(segs)
	type rowTrack struct{ row, track int }
	used := map[rowTrack]bool{}
	ripped := 0
	for _, s := range order {
		placed := false
		for t := 0; t < height && !placed; t++ {
			ok := true
			for r := s.Span.Lo; r <= s.Span.Hi; r++ {
				if used[rowTrack{r, t}] {
					ok = false
					break
				}
			}
			if ok {
				straight(s, t)
				for r := s.Span.Lo; r <= s.Span.Hi; r++ {
					used[rowTrack{r, t}] = true
				}
				placed = true
			}
		}
		if !placed {
			s.Ripped = true
			ripped++
		}
	}
	return ripped
}

// ---------------------------------------------------------------------
// helpers

func byLengthDesc(segs []*plan.GSeg) []*plan.GSeg {
	out := make([]*plan.GSeg, len(segs))
	copy(out, segs)
	sort.SliceStable(out, func(a, b int) bool {
		la, lb := out[a].Span.Len(), out[b].Span.Len()
		if la != lb {
			return la > lb
		}
		return out[a].NetID < out[b].NetID
	})
	return out
}

func straight(s *plan.GSeg, t int) {
	s.Tracks = make([]int, s.Span.Len())
	for i := range s.Tracks {
		s.Tracks[i] = t
	}
}

// occupancy tracks which (row, track) cells of a panel are taken.
type occupancy struct {
	used map[[2]int]bool
}

func newOccupancy(*Problem) *occupancy {
	return &occupancy{used: make(map[[2]int]bool)}
}

func (o *occupancy) freeRange(span geom.Interval, t int) bool {
	for r := span.Lo; r <= span.Hi; r++ {
		if o.used[[2]int{r, t}] {
			return false
		}
	}
	return true
}

func (o *occupancy) place(span geom.Interval, t int) {
	for r := span.Lo; r <= span.Hi; r++ {
		o.used[[2]int{r, t}] = true
	}
}

func (o *occupancy) placeOne(row, t int)    { o.used[[2]int{row, t}] = true }
func (o *occupancy) removeOne(row, t int)   { delete(o.used, [2]int{row, t}) }
func (o *occupancy) usedAt(row, t int) bool { return o.used[[2]int{row, t}] }

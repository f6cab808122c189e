package track

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"stitchroute/internal/geom"
	"stitchroute/internal/plan"
)

func vseg(net, lo, hi int) *plan.GSeg {
	return &plan.GSeg{NetID: net, Dir: geom.Vertical, Span: geom.Interval{Lo: lo, Hi: hi}}
}

func prob(segs ...*plan.GSeg) *Problem {
	return &Problem{Width: 15, HasRightStitch: true, SUREps: 1, Segs: segs}
}

// checkInvariants verifies a completed assignment: usable tracks only
// (except Conventional's stitch-track rips handled separately), per
// (row,track) exclusivity, and non-crossing.
func checkInvariants(t *testing.T, p *Problem) {
	t.Helper()
	occ := map[[2]int]int{}
	for i, s := range p.Segs {
		if s.Tracks == nil {
			if !s.Ripped {
				t.Errorf("seg %d has no tracks but not ripped", i)
			}
			continue
		}
		if len(s.Tracks) != s.Span.Len() {
			t.Fatalf("seg %d: %d tracks for span %v", i, len(s.Tracks), s.Span)
		}
		for j, tr := range s.Tracks {
			if tr < 1 || tr > p.Width-1 {
				t.Errorf("seg %d row %d: track %d out of usable range", i, j, tr)
			}
			key := [2]int{s.Span.Lo + j, tr}
			if prev, ok := occ[key]; ok {
				t.Errorf("segs %d and %d share row/track %v", prev, i, key)
			}
			occ[key] = i
		}
	}
	// Non-crossing.
	for i := range p.Segs {
		for j := i + 1; j < len(p.Segs); j++ {
			a, b := p.Segs[i], p.Segs[j]
			if a.Tracks == nil || b.Tracks == nil {
				continue
			}
			ov := a.Span.Intersect(b.Span)
			if ov.Empty() {
				continue
			}
			sign := 0
			for r := ov.Lo; r <= ov.Hi; r++ {
				d := a.Tracks[r-a.Span.Lo] - b.Tracks[r-b.Span.Lo]
				cur := 1
				if d < 0 {
					cur = -1
				}
				if sign == 0 {
					sign = cur
				} else if cur != sign {
					t.Errorf("segs %d and %d cross", i, j)
				}
			}
		}
	}
}

func TestGraphAvoidsBadEnds(t *testing.T) {
	// A single segment whose low end crosses left: track 1 would be a bad
	// end, so it must land on track >= 2.
	s := vseg(0, 0, 3)
	s.LoCrossL = true
	p := prob(s)
	st := Solve(context.Background(), p, GraphBased)
	if st.BadEnds != 0 {
		t.Fatalf("bad ends = %d, want 0", st.BadEnds)
	}
	if s.Tracks[0] <= 1 {
		t.Errorf("low-end track %d inside left SUR", s.Tracks[0])
	}
	checkInvariants(t, p)
}

func TestGraphAvoidsRightSUR(t *testing.T) {
	s := vseg(0, 0, 3)
	s.HiCrossR = true
	p := prob(s)
	// Force it toward the right by filling left tracks on all its rows.
	var blockers []*plan.GSeg
	for tr := 0; tr < 11; tr++ {
		b := vseg(100+tr, 0, 3)
		blockers = append(blockers, b)
	}
	p.Segs = append(blockers, s)
	st := Solve(context.Background(), p, GraphBased)
	if st.BadEnds != 0 {
		t.Fatalf("bad ends = %d, want 0", st.BadEnds)
	}
	if s.Tracks != nil && s.Tracks[len(s.Tracks)-1] >= 14 {
		t.Errorf("high-end track %d inside right SUR", s.Tracks[len(s.Tracks)-1])
	}
	checkInvariants(t, p)
}

func TestNoRightStitchNoRightBadEnd(t *testing.T) {
	s := vseg(0, 0, 2)
	s.HiCrossR = true
	p := prob(s)
	p.HasRightStitch = false
	Solve(context.Background(), p, GraphBased)
	// Track 14 is fine without a right stitching line.
	if p.badEndAt(s, false, 14) {
		t.Error("right bad end without right stitch line")
	}
}

func TestGraphUsesDoglegWhenNeeded(t *testing.T) {
	// Fig. 16 shape: a long segment pinned next to the stitch line must
	// dogleg away at its crossing end. Fill tracks 2..13 on the end row
	// only, leaving track 1 elsewhere; crossing low end forbids track 1 at
	// the end row.
	long := vseg(0, 0, 5)
	long.LoCrossL = true
	segs := []*plan.GSeg{long}
	for tr := 0; tr < 12; tr++ {
		segs = append(segs, vseg(1+tr, 0, 0)) // short segs crowd row 0
	}
	p := prob(segs...)
	st := Solve(context.Background(), p, GraphBased)
	checkInvariants(t, p)
	if st.BadEnds > 0 && st.Ripped == 0 {
		// Bad ends allowed only when the window truly collapsed; with 14
		// usable tracks and 13 on row 0, a solution without bad ends
		// exists (long seg gets track >= 2 on row 0).
		t.Errorf("unnecessary bad ends: %+v", st)
	}
}

func TestConventionalUsesStitchTrackAndRips(t *testing.T) {
	// 15 overlapping segments: conventional first-fit fills tracks 0..14;
	// the track-0 segment must be ripped.
	var segs []*plan.GSeg
	for i := 0; i < 15; i++ {
		segs = append(segs, vseg(i, 0, 4))
	}
	p := prob(segs...)
	st := Solve(context.Background(), p, Conventional)
	if st.Ripped != 1 {
		t.Errorf("ripped = %d, want 1 (stitch-track segment)", st.Ripped)
	}
	checkInvariants(t, p)
}

func TestConventionalProducesBadEnds(t *testing.T) {
	// Conventional doesn't know about SURs: a crossing segment placed
	// first-fit lands on track 0 -> ripped, or track 1 -> bad end.
	s := vseg(0, 0, 3)
	s.LoCrossL = true
	p := prob(s)
	st := Solve(context.Background(), p, Conventional)
	if st.Ripped == 0 && st.BadEnds == 0 {
		t.Errorf("conventional avoided the bad end: tracks=%v", s.Tracks)
	}
}

func TestILPOptimalNoDoglegWhenStraightFits(t *testing.T) {
	a := vseg(0, 0, 3)
	b := vseg(1, 2, 6)
	p := prob(a, b)
	st := Solve(context.Background(), p, ILPBased)
	if st.Doglegs != 0 {
		t.Errorf("doglegs = %d, want 0", st.Doglegs)
	}
	if st.BadEnds != 0 || st.Ripped != 0 {
		t.Errorf("stats = %+v", st)
	}
	checkInvariants(t, p)
}

func TestILPForbidsBadEnds(t *testing.T) {
	s := vseg(0, 0, 4)
	s.LoCrossL = true
	s.HiCrossR = true
	p := prob(s)
	st := Solve(context.Background(), p, ILPBased)
	if st.BadEnds != 0 {
		t.Fatalf("ILP produced %d bad ends", st.BadEnds)
	}
	if s.Tracks[0] == 1 || s.Tracks[len(s.Tracks)-1] == 14 {
		t.Errorf("end tracks in SUR: %v", s.Tracks)
	}
	checkInvariants(t, p)
}

func TestILPUsesDoglegToAvoidBadEnd(t *testing.T) {
	// Crowd every track except 1 on rows 1..4, so a straight assignment
	// for the crossing segment would need track 1 (bad end at row 0).
	// A dogleg (track >= 2 at row 0, track 1 later) escapes.
	long := vseg(0, 0, 4)
	long.LoCrossL = true
	segs := []*plan.GSeg{long}
	for tr := 0; tr < 13; tr++ {
		segs = append(segs, vseg(1+tr, 1, 4))
	}
	p := prob(segs...)
	st := Solve(context.Background(), p, ILPBased)
	checkInvariants(t, p)
	if long.Tracks == nil {
		t.Fatal("long segment ripped")
	}
	if st.BadEnds != 0 {
		t.Errorf("bad ends = %d", st.BadEnds)
	}
	if long.Tracks[0] == 1 {
		t.Errorf("bad end at low row: %v", long.Tracks)
	}
}

// TestILPOverfullPanelFallsBack: a row crossed by more segments than
// the panel has usable tracks cannot be assigned by the ILP, so the panel
// falls back to the graph heuristic before any search and gets exactly
// the graph heuristic's assignment.
func TestILPOverfullPanelFallsBack(t *testing.T) {
	build := func() *Problem {
		p := &Problem{Width: 4, HasRightStitch: true, SUREps: 1}
		for i := 0; i < 4; i++ { // 4 segments cross row 2; tracks 1..3 are usable
			p.Segs = append(p.Segs, vseg(i, i%2, 2+i))
		}
		return p
	}
	ilpP, graphP := build(), build()
	if !ilpP.overfull() {
		t.Fatal("4 segments crossing a row of 3 usable tracks not counted as overfull")
	}
	st := Solve(context.Background(), ilpP, ILPBased)
	want := Solve(context.Background(), graphP, GraphBased)
	if st.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", st.Fallbacks)
	}
	want.Fallbacks = 1
	if st != want {
		t.Errorf("ILP stats %+v, want the graph heuristic's %+v", st, want)
	}
	for i, s := range ilpP.Segs {
		if !slices.Equal(s.Tracks, graphP.Segs[i].Tracks) {
			t.Errorf("segment %d: tracks %v, want the graph heuristic's %v", i, s.Tracks, graphP.Segs[i].Tracks)
		}
	}
	// One segment fewer fits, so the search runs and places every one.
	fits := build()
	fits.Segs = fits.Segs[:3]
	if fits.overfull() {
		t.Error("3 segments over 3 usable tracks counted as overfull")
	}
	if st := Solve(context.Background(), fits, ILPBased); st.Fallbacks != 0 || st.Ripped != 0 {
		t.Errorf("feasible panel: stats %+v, want no fallback and no rip", st)
	}
}

func TestAlgorithmsAgreeOnFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 30; iter++ {
		n := 1 + rng.Intn(8)
		build := func() []*plan.GSeg {
			segs := make([]*plan.GSeg, n)
			for i := range segs {
				lo := rng.Intn(6)
				segs[i] = vseg(i, lo, lo+rng.Intn(5))
				segs[i].LoCrossL = rng.Intn(3) == 0
				segs[i].HiCrossR = rng.Intn(3) == 0
			}
			return segs
		}
		base := build()
		for _, algo := range []Algo{Conventional, GraphBased, ILPBased} {
			segs := make([]*plan.GSeg, n)
			for i, s := range base {
				cp := *s
				segs[i] = &cp
			}
			p := prob(segs...)
			st := Solve(context.Background(), p, algo)
			checkInvariants(t, p)
			if algo != Conventional && st.Ripped > 0 && n < 10 {
				// With <=8 segs over 14 tracks, nothing should rip.
				t.Errorf("iter %d algo %v: ripped %d of %d", iter, algo, st.Ripped, n)
			}
		}
	}
}

func TestStitchAwareBeatsConventionalOnBadEnds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var convBE, graphBE, ilpBE int
	for iter := 0; iter < 25; iter++ {
		n := 4 + rng.Intn(8)
		base := make([]*plan.GSeg, n)
		for i := range base {
			lo := rng.Intn(5)
			base[i] = vseg(i, lo, lo+rng.Intn(6))
			base[i].LoCrossL = rng.Intn(2) == 0
			base[i].LoCrossR = rng.Intn(4) == 0
			base[i].HiCrossL = rng.Intn(4) == 0
			base[i].HiCrossR = rng.Intn(2) == 0
		}
		run := func(algo Algo) int {
			segs := make([]*plan.GSeg, n)
			for i, s := range base {
				cp := *s
				segs[i] = &cp
			}
			return Solve(context.Background(), prob(segs...), algo).BadEnds
		}
		convBE += run(Conventional)
		graphBE += run(GraphBased)
		ilpBE += run(ILPBased)
	}
	if graphBE > convBE {
		t.Errorf("graph-based bad ends %d > conventional %d", graphBE, convBE)
	}
	if ilpBE > graphBE {
		t.Errorf("ILP bad ends %d > graph-based %d", ilpBE, graphBE)
	}
	if convBE == 0 {
		t.Error("workload produced no conventional bad ends; test is vacuous")
	}
}

func TestSolveRow(t *testing.T) {
	segs := []*plan.GSeg{
		{NetID: 0, Dir: geom.Horizontal, Span: geom.Interval{Lo: 0, Hi: 4}},
		{NetID: 1, Dir: geom.Horizontal, Span: geom.Interval{Lo: 2, Hi: 6}},
		{NetID: 2, Dir: geom.Horizontal, Span: geom.Interval{Lo: 5, Hi: 9}},
	}
	ripped := SolveRow(15, segs)
	if ripped != 0 {
		t.Fatalf("ripped = %d", ripped)
	}
	// Overlapping segments must be on distinct tracks.
	if segs[0].Tracks[0] == segs[1].Tracks[0] {
		t.Error("overlapping row segments share a track")
	}
	// Non-overlapping can reuse track 0.
	for _, s := range segs {
		if s.Tracks == nil {
			t.Error("unassigned segment")
		}
	}
}

func TestSolveRowOverflowRips(t *testing.T) {
	var segs []*plan.GSeg
	for i := 0; i < 5; i++ {
		segs = append(segs, &plan.GSeg{NetID: i, Dir: geom.Horizontal, Span: geom.Interval{Lo: 0, Hi: 3}})
	}
	ripped := SolveRow(3, segs)
	if ripped != 2 {
		t.Errorf("ripped = %d, want 2", ripped)
	}
}

func TestEmptyProblem(t *testing.T) {
	p := prob()
	for _, algo := range []Algo{Conventional, GraphBased, ILPBased} {
		st := Solve(context.Background(), p, algo)
		if st != (Stats{}) {
			t.Errorf("algo %v: non-zero stats %+v for empty problem", algo, st)
		}
	}
}

func TestAlgoString(t *testing.T) {
	if Conventional.String() != "conventional" || ILPBased.String() != "ilp" || GraphBased.String() != "graph" {
		t.Error("Algo.String wrong")
	}
}

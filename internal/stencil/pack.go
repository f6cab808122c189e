// Character selection and overlapping-aware plate packing.
package stencil

import (
	"context"
	"fmt"

	"stitchroute/internal/ilp"
)

// selectProblem is the branch-and-bound model for character selection:
// one 0/1 variable per candidate, in saving-descending order. Skipping a
// candidate costs its saving (write time not recovered); selecting costs
// nothing but consumes plate capacity. The capacity model matches the
// overlapping-aware packer: a character's footprint is (W+halo)×(H+halo)
// — one shared halo per side — against a plate of
// (w−halo)×(h−halo) usable area, so selection and packing
// agree except for row fragmentation (which packing resolves by
// deterministic drops).
type selectProblem struct {
	cands []Character
	cap   int
	used  int
}

func (p *selectProblem) footprint(i int) int {
	return (p.cands[i].W + halo) * (p.cands[i].H + halo)
}

func (p *selectProblem) NumVars() int { return len(p.cands) }

func (p *selectProblem) Candidates(v int, dst []ilp.Candidate) []ilp.Candidate {
	if p.used+p.footprint(v) <= p.cap {
		dst = append(dst, ilp.Candidate{Value: 1, Cost: 0})
	}
	return append(dst, ilp.Candidate{Value: 0, Cost: p.cands[v].Saving})
}

func (p *selectProblem) Apply(v, val int) {
	if val == 1 {
		p.used += p.footprint(v)
	}
}

func (p *selectProblem) Undo(v, val int) {
	if val == 1 {
		p.used -= p.footprint(v)
	}
}

// selectNodeBudget bounds the selection search. maxCandidates variables
// with two values each stay comfortably under it in practice; hitting it
// degrades the plan to the incumbent (SelectionOptimal=false), never
// breaks it.
const selectNodeBudget = 1 << 18

// selectCharacters picks the character subset maximizing total saving
// under the capacity of plate pl.
func selectCharacters(ctx context.Context, cands []Character, pl plate) ([]Character, bool, error) {
	p := &selectProblem{
		cands: cands,
		cap:   (pl.w - halo) * (pl.h - halo),
	}
	sol := ilp.SolveContext(ctx, p, selectNodeBudget, 0)
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("stencil: %w", err)
	}
	var selected []Character
	if sol.Values == nil {
		// Cannot happen — skipping everything is always feasible — but
		// degrade to an empty stencil rather than fail.
		return nil, false, nil
	}
	for i, v := range sol.Values {
		if v == 1 {
			selected = append(selected, cands[i])
		}
	}
	return selected, sol.Optimal, nil
}

// pack shelf-packs the selected characters onto plate pl, sharing halos
// between horizontal neighbors and between rows (E-BLOW's 1D
// overlapping-aware packing, applied per shelf). Characters are placed
// tallest-first; one that fits neither the open row nor a fresh row is
// dropped — selection order is saving-descending, so drops sacrifice the
// least valuable characters first. Returns the placements and the plate
// area recovered versus naive per-character margins.
func pack(selected []Character, pl plate) ([]Placement, int) {
	// Tallest-first keeps shelves dense; ties break by the candidate
	// order (saving descending, then hash), which is already the slice
	// order, so a stable criterion on height alone suffices.
	order := make([]int, len(selected))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && selected[order[j]].H > selected[order[j-1]].H; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	var placements []Placement
	x, y, rowH := halo, halo, 0
	shared := 0
	for _, idx := range order {
		ch := selected[idx]
		if x+ch.W+halo > pl.w && rowH > 0 {
			// Close the shelf; the next one shares this one's top halo.
			y += rowH + halo
			x, rowH = halo, 0
		}
		if x+ch.W+halo > pl.w || y+ch.H+halo > pl.h {
			continue // dropped: does not fit even on a fresh shelf
		}
		placements = append(placements, Placement{Char: ch, X: x, Y: y})
		x += ch.W + halo
		if ch.H > rowH {
			rowH = ch.H
		}
		// Versus naive margins every character pays 2×halo per side; the
		// shelf shares one halo with each neighbor.
		shared += (ch.W+2*halo)*(ch.H+2*halo) - (ch.W+halo)*(ch.H+halo)
	}
	return placements, shared
}

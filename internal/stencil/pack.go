// Character selection and overlapping-aware plate packing.
package stencil

import (
	"cmp"
	"slices"
)

// footprint is the plate area a character takes under the overlapping-
// aware packer: its pattern plus one shared halo per side.
func footprint(c Character) int {
	return (c.W + halo) * (c.H + halo)
}

// selectCharacters picks characters by the plate's capacity: it visits
// the candidates in order of saving per footprint unit and takes each
// one whose footprint still fits the plate's (w−halo)×(h−halo) usable
// area. The sort is stable, so equal densities keep candidate order
// (saving descending, then hash). When every footprint fits, every
// candidate is taken; otherwise the saving is within the largest single
// saving of the fractional-knapsack bound. Selection and packing agree
// except for shelf fragmentation, which packing resolves by
// deterministic drops. The result keeps candidate order.
func selectCharacters(cands []Character, pl plate) []Character {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	// Density descending, compared by cross-multiplication: savings are
	// half-units and footprints small integers, so the products are
	// exact and equal densities compare equal.
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(cands[b].Saving*float64(footprint(cands[a])),
			cands[a].Saving*float64(footprint(cands[b])))
	})
	free := (pl.w - halo) * (pl.h - halo)
	take := make([]bool, len(cands))
	for _, i := range order {
		if fp := footprint(cands[i]); fp <= free {
			take[i] = true
			free -= fp
		}
	}
	var selected []Character
	for i, c := range cands {
		if take[i] {
			selected = append(selected, c)
		}
	}
	return selected
}

// pack shelf-packs the selected characters onto plate pl, sharing halos
// between horizontal neighbors and between rows (E-BLOW's 1D
// overlapping-aware packing, applied per shelf). Characters are placed
// tallest-first, ties in selection order; one that fits neither the
// open row nor a fresh row is dropped, so the drops are the characters,
// in tallest-first order, that miss the last shelf. Returns the
// placements and the plate area recovered versus naive per-character
// margins.
func pack(selected []Character, pl plate) ([]Placement, int) {
	order := slices.Clone(selected)
	slices.SortStableFunc(order, func(a, b Character) int { return cmp.Compare(b.H, a.H) })

	var placements []Placement
	x, y, rowH := halo, halo, 0
	shared := 0
	for _, ch := range order {
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

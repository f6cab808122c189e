// Package stencil re-creates the floateq finding fixed before commit
// b0876e9 landed: the stencil candidate sort tested float savings for
// equality before its hash tie-break.
package stencil

import "sort"

type Candidate struct {
	Hash   string
	Saving float64
}

// sortCandidates is the buggy comparator.
func sortCandidates(cands []Candidate) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Saving != cands[j].Saving { // catch: floateq
			return cands[i].Saving > cands[j].Saving
		}
		return cands[i].Hash < cands[j].Hash
	})
}

// sortCandidatesFixed is the committed comparator: two strict
// comparisons, then the hash.
func sortCandidatesFixed(cands []Candidate) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Saving > cands[j].Saving {
			return true
		}
		if cands[i].Saving < cands[j].Saving {
			return false
		}
		return cands[i].Hash < cands[j].Hash
	})
}

package core

// Footprints is a list of equal-length per-net bitsets (detail's actTile
// footprints) stored packed: each net keeps only its nonzero words, as
// (word index, word) pairs in one backing array shared by every net.
// Footprints are sparse — 4–13% of their words are nonzero on the
// benchmark circuits — so the packed form is a fraction of the dense
// one, which matters because the server retains finished results.
type Footprints struct {
	words int        // length of every unpacked bitset
	end   []int32    // net i's pairs are pairs[end[i-1]:end[i]] (end[-1] = 0)
	pairs []wordPair // nonzero words, net by net, in ascending index order
}

type wordPair struct {
	word uint64
	idx  int32
}

// PackFootprints packs the bitsets, which must all have the same length.
func PackFootprints(sets [][]uint64) Footprints {
	var fp Footprints
	nz := 0
	for _, s := range sets {
		if len(s) != len(sets[0]) {
			panic("core: PackFootprints of bitsets with different lengths")
		}
		for _, w := range s {
			if w != 0 {
				nz++
			}
		}
	}
	if len(sets) > 0 {
		fp.words = len(sets[0])
	}
	fp.end = make([]int32, len(sets))
	fp.pairs = make([]wordPair, 0, nz)
	for i, s := range sets {
		for j, w := range s {
			if w != 0 {
				fp.pairs = append(fp.pairs, wordPair{word: w, idx: int32(j)})
			}
		}
		fp.end[i] = int32(len(fp.pairs))
	}
	return fp
}

// Len returns the number of packed bitsets.
func (fp Footprints) Len() int { return len(fp.end) }

// Unpack returns bitset i as a fresh dense slice.
func (fp Footprints) Unpack(i int) []uint64 {
	lo := int32(0)
	if i > 0 {
		lo = fp.end[i-1]
	}
	out := make([]uint64, fp.words)
	for _, p := range fp.pairs[lo:fp.end[i]] {
		out[p.idx] = p.word
	}
	return out
}

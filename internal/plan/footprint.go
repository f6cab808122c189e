package plan

// Footprint is a per-net tile bitset stored packed: its nonzero words,
// as (index, word) pairs in ascending index order. Both routers record
// one per net for the ECO engine (internal/eco): the global router the
// tiles its searches popped (one bit per global tile), the detailed
// router its activity and write footprints (one bit per bucket of
// tracks). Footprints are sparse, 4–15% of their words nonzero on the
// benchmark circuits, so a router keeps one dense scratch bitset for the
// net being routed and packs it as soon as the net is recorded.
type Footprint []WordPair

// WordPair is one nonzero word of a packed bitset and its index.
type WordPair struct {
	Word uint64
	Idx  int32
}

// Footprints is a run's per-net footprints, indexed by net slot, all
// packed from dense bitsets of Words words.
type Footprints struct {
	Words int
	Nets  []Footprint
}

// Len returns the number of recorded footprints.
func (fp Footprints) Len() int { return len(fp.Nets) }

// Pack packs the dense bitset into one exact-size allocation; an empty
// set packs to nil.
func Pack(set []uint64) Footprint {
	f, _ := PackPair(set, nil)
	return f
}

// PackPair packs the dense bitsets a and b into one exact-size
// allocation shared by both footprints: the words are copied once, and
// a net's two footprints cost one allocation.
func PackPair(a, b []uint64) (Footprint, Footprint) {
	na, nb := nonzero(a), nonzero(b)
	if na+nb == 0 {
		return nil, nil
	}
	buf := make(Footprint, 0, na+nb)
	buf = appendPacked(buf, a)
	buf = appendPacked(buf, b)
	return buf[:na:na], buf[na:]
}

func nonzero(set []uint64) int {
	n := 0
	for _, w := range set {
		if w != 0 {
			n++
		}
	}
	return n
}

func appendPacked(dst Footprint, set []uint64) Footprint {
	for i, w := range set {
		if w != 0 {
			dst = append(dst, WordPair{Word: w, Idx: int32(i)})
		}
	}
	return dst
}

// OrInto ORs the footprint into the dense bitset dst.
func (f Footprint) OrInto(dst []uint64) {
	for _, p := range f {
		dst[p.Idx] |= p.Word
	}
}

// Intersects reports whether the footprint and the dense bitset b share
// a set bit.
func (f Footprint) Intersects(b []uint64) bool {
	for _, p := range f {
		if p.Word&b[p.Idx] != 0 {
			return true
		}
	}
	return false
}

package plan

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFootprintsRoundTrip packs sparse, empty and dense bitsets in
// pairs and checks every footprint ORs back to exactly its input, and
// intersects a dense bitset exactly when its input does.
func TestFootprintsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const words = 37
	sets := make([][]uint64, 60)
	for i := range sets {
		s := make([]uint64, words)
		switch i % 3 {
		case 0: // empty
		case 1: // sparse
			for k := 0; k < 3; k++ {
				s[rng.Intn(words)] = rng.Uint64() | 1
			}
		case 2: // dense
			for j := range s {
				s[j] = rng.Uint64()
			}
		}
		sets[i] = s
	}
	probe := make([]uint64, words)
	probe[rng.Intn(words)] = 1 << 7
	for i := 0; i+1 < len(sets); i += 2 {
		a, b := PackPair(sets[i], sets[i+1])
		for k, fp := range []Footprint{a, b} {
			want := sets[i+k]
			got := make([]uint64, words)
			fp.OrInto(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("set %d: unpacked %v, want %v", i+k, got, want)
			}
			hit := false
			for j, w := range want {
				hit = hit || w&probe[j] != 0
			}
			if fp.Intersects(probe) != hit {
				t.Errorf("set %d: intersects = %v, want %v", i+k, !hit, hit)
			}
		}
	}
}

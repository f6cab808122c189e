package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFootprintsRoundTrip packs sparse, empty and dense bitsets and
// checks every one unpacks to exactly its input.
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
	fp := PackFootprints(sets)
	if fp.Len() != len(sets) {
		t.Fatalf("Len = %d, want %d", fp.Len(), len(sets))
	}
	for i, want := range sets {
		if got := fp.Unpack(i); !reflect.DeepEqual(got, want) {
			t.Errorf("set %d: unpacked %v, want %v", i, got, want)
		}
	}
	if empty := PackFootprints(nil); empty.Len() != 0 {
		t.Errorf("packing no sets: Len = %d, want 0", empty.Len())
	}
}

package global

import (
	"math/rand"
	"sort"
	"testing"
)

func TestFHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(200)
		h := &fHeap{}
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			p := rng.Float64() * 100
			want[i] = p
			h.push(i, p)
		}
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			_, p := h.pop()
			if p != want[i] {
				t.Fatalf("iter %d: pop %d = %v, want %v", iter, i, p, want[i])
			}
		}
		if h.len() != 0 {
			t.Fatal("heap not empty")
		}
	}
}

func TestFHeapInterleaved(t *testing.T) {
	h := &fHeap{}
	h.push(1, 5)
	h.push(2, 1)
	if s, p := h.pop(); s != 2 || p != 1 {
		t.Fatalf("pop = %d,%v", s, p)
	}
	h.push(3, 0.5)
	h.push(4, 9)
	if s, _ := h.pop(); s != 3 {
		t.Fatalf("pop = %d", s)
	}
	if s, _ := h.pop(); s != 1 {
		t.Fatalf("pop = %d", s)
	}
	if s, _ := h.pop(); s != 4 {
		t.Fatalf("pop = %d", s)
	}
}

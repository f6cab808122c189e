package global

// fHeap is a binary min-heap of (state, priority float64) used by the
// global A* search. The router's searchArena owns one and reuses it
// across searches via reset.
type fHeap struct {
	states []int
	prio   []float64
}

func (h *fHeap) reset() {
	h.states = h.states[:0]
	h.prio = h.prio[:0]
}

func (h *fHeap) len() int { return len(h.states) }

func (h *fHeap) push(state int, p float64) {
	h.states = append(h.states, state)
	h.prio = append(h.prio, p)
	i := len(h.states) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[parent] <= h.prio[i] {
			break
		}
		h.swap(parent, i)
		i = parent
	}
}

func (h *fHeap) pop() (state int, p float64) {
	state, p = h.states[0], h.prio[0]
	last := len(h.states) - 1
	h.swap(0, last)
	h.states = h.states[:last]
	h.prio = h.prio[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.prio[l] < h.prio[small] {
			small = l
		}
		if r < last && h.prio[r] < h.prio[small] {
			small = r
		}
		if small == i {
			break
		}
		h.swap(i, small)
		i = small
	}
	return state, p
}

func (h *fHeap) swap(i, j int) {
	h.states[i], h.states[j] = h.states[j], h.states[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
}

// Fixture for the nondeterm analyzer. The headline cases are the ones a
// syntactic check provably misses: a nondeterministic value that travels
// through one or more assignments (or a helper call) before reaching
// routing state. A check that only looks inside the literal range body
// cannot see seedHeapViaLocal below.
package nondeterm

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

type node struct {
	cost int64
	x, y int
}

type stats struct {
	Elapsed time.Duration
	Pushes  int
}

type intHeap struct{ xs []int }

func (h *intHeap) push(x int) { h.xs = append(h.xs, x) }

// timeChain is the c18208f bug class rewritten as a two-step dataflow
// chain: the wall-clock value passes through two locals before landing in
// a cost field. No syntactic check connects the dots; the taint engine
// must.
func timeChain(n *node) {
	t := time.Now().UnixNano()
	j := t % 8
	n.cost = j // want `run-dependent value reaches field n\.cost`
}

// jitter hides the source behind a package-local helper; the call-summary
// fixpoint must carry the taint to the caller.
func jitter() int64 { return time.Now().UnixNano() }

func helperChain(n *node) {
	n.cost = jitter() // want `run-dependent value reaches field n\.cost`
}

// seedHeapViaLocal is the must-flag case a syntactic check cannot see: the
// map-ordered value is stashed in a local inside the range body, and the
// heap push happens after the loop. Flow-sensitivity or nothing.
func seedHeapViaLocal(sources map[int]int, h *intHeap) {
	last := 0
	for s := range sources {
		last = s
	}
	h.push(last) // want `iteration-order-dependent value reaches heap push argument`
}

// seedHeapSorted is the shipped fix: sorting launders the order taint, so
// neither the loop nor the pushes may be flagged.
func seedHeapSorted(sources map[int]int, h *intHeap) {
	keys := make([]int, 0, len(sources))
	for s := range sources {
		keys = append(keys, s)
	}
	sort.Ints(keys)
	for _, s := range keys {
		h.push(s)
	}
}

// recordTelemetry writes wall-clock values into timing fields, which is
// reporting rather than routing: exempt by field type and name.
func recordTelemetry(st *stats, t0 time.Time) {
	st.Elapsed = time.Since(t0)
	st.Pushes++
}

// strongUpdate kills the taint by overwriting the variable before it
// reaches the sink; a flow-insensitive analysis would still flag this.
func strongUpdate(n *node) {
	t := time.Now().UnixNano()
	t = 0
	n.cost = t
}

// benchSeeded uses a constant seed: the stream is reproducible, so the
// values may flow into routing state.
func benchSeeded(n *node) {
	r := rand.New(rand.NewSource(42))
	n.cost = int64(r.Intn(100))
}

// globalRand draws from the global RNG, seeded nondeterministically at
// startup.
func globalRand(n *node) {
	n.cost = rand.Int63() // want `run-dependent value reaches field n\.cost`
}

// selectOrder: with two ready channels, which case fires is
// scheduling-dependent; the received value must not steer routing.
func selectOrder(a, b chan int, n *node) {
	var got int
	select {
	case v := <-a:
		got = v
	case v := <-b:
		got = v
	}
	n.cost = int64(got) // want `iteration-order-dependent value reaches field n\.cost`
}

// ptrKey formats a pointer: the text changes every run, so using it as a
// map key builds a different map each time.
func ptrKey(n *node, m map[string]int) {
	k := fmt.Sprintf("%p", n)
	m[k] = 1 // want `run-dependent value reaches element of m`
}

// intAccumulate is order-independent: summing integers over a map range
// yields the same total in every order.
func intAccumulate(w map[int]int, n *node) {
	sum := 0
	for _, v := range w {
		sum += v
	}
	n.cost = int64(sum)
}

// floatAccumulate is not: float addition rounds differently in different
// orders, so the result is order-tainted.
func floatAccumulate(w map[int]float64, res []float64) {
	var f float64
	for _, v := range w {
		f += v
	}
	res[0] = f // want `iteration-order-dependent value reaches element of res`
}

// mapCopy builds a map from a map range: same set in, same map out —
// order taint must not flag set-semantics writes.
func mapCopy(src, dst map[int]int) {
	for k, v := range src {
		dst[k] = v
	}
}

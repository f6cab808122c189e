package ilp

import (
	"context"
	"math"
	"testing"
)

// permProblem: assign n variables distinct values 0..n-1 minimizing a cost
// matrix — a tiny assignment problem with a known brute-force answer.
type permProblem struct {
	cost [][]float64
	used []bool
}

func (p *permProblem) NumVars() int { return len(p.cost) }

func (p *permProblem) Candidates(v int, dst []Candidate) []Candidate {
	for val := range p.cost[v] {
		if !p.used[val] {
			dst = append(dst, Candidate{Value: val, Cost: p.cost[v][val]})
		}
	}
	return dst
}

func (p *permProblem) Apply(v, val int) { p.used[val] = true }
func (p *permProblem) Undo(v, val int)  { p.used[val] = false }

func TestSolveAssignment(t *testing.T) {
	p := &permProblem{
		cost: [][]float64{
			{4, 1, 3},
			{2, 0, 5},
			{3, 2, 2},
		},
		used: make([]bool, 3),
	}
	res := Solve(context.Background(), p, 0)
	if !res.Optimal {
		t.Fatal("unlimited budget not optimal")
	}
	if res.Cost != 5 { // 1 + 2 + 2
		t.Fatalf("cost = %v, want 5 (values %v)", res.Cost, res.Values)
	}
	seen := map[int]bool{}
	for _, v := range res.Values {
		if seen[v] {
			t.Fatalf("value %d reused: %v", v, res.Values)
		}
		seen[v] = true
	}
}

// infeasibleProblem has a variable with no candidates.
type infeasibleProblem struct{ permProblem }

func (p *infeasibleProblem) Candidates(v int, dst []Candidate) []Candidate {
	if v == 1 {
		return dst
	}
	return p.permProblem.Candidates(v, dst)
}

func TestSolveInfeasible(t *testing.T) {
	p := &infeasibleProblem{permProblem{
		cost: [][]float64{{1, 2}, {1, 2}},
		used: make([]bool, 2),
	}}
	res := Solve(context.Background(), p, 0)
	if res.Values != nil {
		t.Fatalf("infeasible problem returned values %v", res.Values)
	}
	if !math.IsInf(res.Cost, 1) {
		t.Errorf("cost = %v, want +Inf", res.Cost)
	}
	if !res.Optimal {
		t.Error("exhaustive search should report optimal (proven infeasible)")
	}
}

func TestNodeBudgetTruncates(t *testing.T) {
	n := 9
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = float64((i*7 + j*13) % 10)
		}
	}
	p := &permProblem{cost: cost, used: make([]bool, n)}
	res := Solve(context.Background(), p, 5)
	if res.Optimal {
		t.Error("budget-limited search claimed optimality")
	}
	if res.Nodes <= 5 {
		// It should have at least hit the budget.
		t.Errorf("nodes = %d", res.Nodes)
	}
}

func TestPruningStillOptimal(t *testing.T) {
	// Larger instance: compare against brute force.
	cost := [][]float64{
		{9, 2, 7, 8},
		{6, 4, 3, 7},
		{5, 8, 1, 8},
		{7, 6, 9, 4},
	}
	p := &permProblem{cost: cost, used: make([]bool, 4)}
	res := Solve(context.Background(), p, 0)
	want := bruteForce(cost)
	if res.Cost != want {
		t.Errorf("cost = %v, want %v", res.Cost, want)
	}
}

func bruteForce(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(int)
	rec = func(i int) {
		if i == n {
			s := 0.0
			for r, c := range perm {
				s += cost[r][c]
			}
			if s < best {
				best = s
			}
			return
		}
		for j := i; j < n; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
	return best
}

func TestZeroVars(t *testing.T) {
	p := &permProblem{}
	res := Solve(context.Background(), p, 0)
	if res.Cost != 0 || len(res.Values) != 0 || !res.Optimal {
		t.Errorf("empty problem: %+v", res)
	}
}

// wideProblem is a large permutation instance whose full search space is
// far beyond any test-sized node budget, so a cancelled context must be
// what stops it.
func wideProblem(n int) *permProblem {
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			// Anti-diagonal costs defeat the sorted-candidate prune so the
			// search actually expands nodes.
			cost[i][j] = float64((i*j)%7) + float64(j%3)
		}
	}
	return &permProblem{cost: cost, used: make([]bool, n)}
}

func TestSolveCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first periodic check must stop the DFS
	res := Solve(ctx, wideProblem(12), 0)
	if res.Optimal {
		t.Error("cancelled search reported optimal")
	}
	// The check cadence bounds how long a cancelled search can keep
	// running: a handful of check windows, not the full factorial tree.
	if res.Nodes > 4*checkEvery {
		t.Errorf("cancelled search expanded %d nodes, want <= %d", res.Nodes, 4*checkEvery)
	}
}

// TestSolveAllocs pins the allocation-free steady state of the DFS: a
// solve allocates its setup (solver state, the value vectors, a few
// growths of the candidate stack) a bounded number of times, never once
// per node.
func TestSolveAllocs(t *testing.T) {
	p := wideProblem(9)
	var nodes int
	allocs := testing.AllocsPerRun(5, func() { nodes = Solve(context.Background(), p, 0).Nodes })
	if nodes < 1000 {
		t.Fatalf("search expanded only %d nodes; the instance no longer exercises the DFS", nodes)
	}
	if allocs > 16 {
		t.Errorf("Solve allocated %.0f times over %d nodes, want <= 16", allocs, nodes)
	}
}

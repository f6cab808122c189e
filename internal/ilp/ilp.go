// Package ilp provides a small exact branch-and-bound solver for the
// 0/1 assignment models the router formulates (the multicommodity-flow
// track-assignment ILP of §III-C1). The paper solves that model with
// CPLEX 12.3; this solver is the from-scratch substitute: it explores
// decision variables depth-first in order, pruning any partial assignment
// whose cost already meets the incumbent, and is exact when it terminates
// within its node budget.
package ilp

import (
	"context"
	"math"
	"time"
)

// Candidate is one feasible value for a decision variable together with
// its incremental cost given the current partial assignment.
type Candidate struct {
	Value int
	Cost  float64
}

// Problem describes a sequential decision model. The solver assigns
// variables 0..NumVars-1 in order. Candidates must return only choices
// that are feasible under the current partial assignment; Apply/Undo
// maintain the caller's incremental state.
type Problem interface {
	NumVars() int
	// Candidates appends the feasible candidates for variable v to dst
	// and returns it. The solver sorts them by cost. dst already holds
	// the candidates of the shallower variables, so implementations must
	// only append to it.
	Candidates(v int, dst []Candidate) []Candidate
	Apply(v int, value int)
	Undo(v int, value int)
}

// Result reports the best assignment found.
type Result struct {
	// Values[v] is the chosen candidate value per variable; nil if no
	// complete feasible assignment was found.
	Values []int
	Cost   float64
	// Optimal is true when the search space was exhausted (the solution
	// is a proven optimum), false when the node budget cut it short.
	Optimal bool
	Nodes   int
}

// Solve runs branch and bound. nodeBudget bounds the number of search
// nodes expanded (<= 0 means unlimited).
func Solve(p Problem, nodeBudget int) Result {
	return SolveContext(context.Background(), p, nodeBudget, 0)
}

// SolveDeadline is Solve with an additional wall-clock budget
// (<= 0 means unlimited). The deadline is checked every few thousand
// nodes; exceeding it truncates the search like the node budget does.
func SolveDeadline(p Problem, nodeBudget int, deadline time.Duration) Result {
	return SolveContext(context.Background(), p, nodeBudget, deadline)
}

// SolveContext is SolveDeadline under a context: cancellation is checked
// inside the DFS on the same cadence as the wall-clock deadline, so a
// cancelled caller (a deleted server job, an expired request) gets its
// worker back within a few thousand nodes instead of after the full
// search. A cancelled run returns the best assignment found so far with
// Optimal=false, exactly like a node-budget truncation — the solver's
// incumbent is always a feasible (if not proven optimal) answer.
func SolveContext(ctx context.Context, p Problem, nodeBudget int, deadline time.Duration) Result {
	s := &solver{
		p:       p,
		n:       p.NumVars(),
		budget:  nodeBudget,
		best:    math.Inf(1),
		current: make([]int, p.NumVars()),
	}
	if deadline > 0 {
		s.deadline = time.Now().Add(deadline)
	}
	// The background context can never be cancelled; skip the per-node
	// Done checks entirely for Solve/SolveDeadline callers.
	if ctx != nil && ctx.Done() != nil {
		s.ctx = ctx
	}
	s.dfs(0, 0)
	res := Result{Cost: s.best, Optimal: !s.truncated, Nodes: s.nodes}
	if s.found {
		res.Values = s.bestVals
	} else {
		res.Cost = math.Inf(1)
	}
	return res
}

type solver struct {
	p         Problem
	n         int
	budget    int
	nodes     int
	truncated bool
	deadline  time.Time
	ctx       context.Context

	best     float64
	found    bool
	current  []int
	bestVals []int
	// stack holds the sorted candidates of every depth on the current
	// DFS path, each depth's as one contiguous range above its parent's.
	stack []Candidate
}

// checkEvery is how often (in expanded nodes) the deadline and context
// are polled; both checks share the cadence so cancellation costs one
// comparison per node in the common case.
const checkEvery = 4096

func (s *solver) dfs(v int, cost float64) {
	if s.truncated {
		return
	}
	if cost >= s.best {
		return
	}
	if v == s.n {
		s.best = cost
		s.found = true
		s.bestVals = append(s.bestVals[:0], s.current...)
		return
	}
	s.nodes++
	if s.budget > 0 && s.nodes > s.budget {
		s.truncated = true
		return
	}
	if s.nodes%checkEvery == 0 {
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			s.truncated = true
			return
		}
		if s.ctx != nil {
			select {
			case <-s.ctx.Done():
				s.truncated = true
				return
			default:
			}
		}
	}
	base := len(s.stack)
	s.stack = s.p.Candidates(v, s.stack)
	end := len(s.stack)
	sortCandidates(s.stack[base:end])
	// Deeper calls append above end and truncate back on return, so this
	// depth's range survives; re-read s.stack since they may move it.
	for i := base; i < end; i++ {
		c := s.stack[i]
		if cost+c.Cost >= s.best {
			break // sorted: no later candidate can be better
		}
		s.current[v] = c.Value
		s.p.Apply(v, c.Value)
		s.dfs(v+1, cost+c.Cost)
		s.p.Undo(v, c.Value)
	}
	s.stack = s.stack[:base]
}

func sortCandidates(cs []Candidate) {
	// Insertion sort: candidate lists are short and often nearly sorted.
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Cost < cs[j-1].Cost; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

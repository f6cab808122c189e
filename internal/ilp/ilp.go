// Package ilp provides a small exact branch-and-bound solver for the
// 0/1 assignment models the router formulates (the multicommodity-flow
// track-assignment ILP of §III-C1). The paper solves that model with
// CPLEX 12.3; this solver is the from-scratch substitute: it explores
// decision variables depth-first in order, pruning any partial assignment
// whose cost already meets the incumbent, and is exact when it terminates
// within its node budget. The budget is the only limit: the search reads
// no clock, so its result depends on the input alone.
package ilp

import (
	"context"
	"math"
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
// nodes expanded (<= 0 means unlimited). Cancellation of ctx is checked
// every few thousand nodes, so a cancelled caller (a deleted server job,
// an expired request) gets its worker back without waiting for the full
// search. A cancelled run returns the best assignment found so far with
// Optimal=false, exactly like a node-budget truncation: the incumbent is
// always a feasible, if not proven optimal, answer.
func Solve(ctx context.Context, p Problem, nodeBudget int) Result {
	s := &solver{
		p:       p,
		n:       p.NumVars(),
		budget:  nodeBudget,
		best:    math.Inf(1),
		current: make([]int, p.NumVars()),
		ctx:     ctx,
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
	ctx       context.Context

	best     float64
	found    bool
	current  []int
	bestVals []int
	// stack holds the sorted candidates of every depth on the current
	// DFS path, each depth's as one contiguous range above its parent's.
	stack []Candidate
}

// checkEvery is how often (in expanded nodes) the context is polled, so
// cancellation costs one comparison per node in the common case.
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
	if s.nodes%checkEvery == 0 && s.ctx.Err() != nil {
		s.truncated = true
		return
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

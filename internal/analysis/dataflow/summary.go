package dataflow

import (
	"go/ast"
	"go/types"
	"sort"

	"stitchroute/internal/analysis/cfg"
)

// FuncSummary compresses a function's taint behaviour to what a call site
// needs: taint the result always carries, plus the set of parameters
// whose taint flows to the result.
type FuncSummary struct {
	// Always is taint the result carries regardless of arguments (the
	// function contains its own source, e.g. calls time.Now).
	Always Taint
	// FromParams is a bitmask: bit i set means parameter i's taint
	// reaches a returned value.
	FromParams uint64
}

// Summaries resolves a package's functions to their summaries.
type Summaries struct {
	funcs map[*types.Func]*FuncSummary
}

// lookup returns the summary for fn, or nil.
func (s *Summaries) lookup(fn *types.Func) *FuncSummary {
	if s == nil {
		return nil
	}
	return s.funcs[fn]
}

// ComputeSummaries analyzes every function declaration in files to a
// fixpoint, so taint propagates through chains of intra-package helpers
// (a calls b calls time.Now ⇒ a's summary is Always-tainted too). The
// config's Summaries field is ignored; a fresh set is built and returned.
func ComputeSummaries(files []*ast.File, base TaintConfig) *Summaries {
	type fnDecl struct {
		obj  *types.Func
		decl *ast.FuncDecl
		g    *cfg.Graph
	}
	var decls []fnDecl
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := base.Info.ObjectOf(fd.Name).(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, fnDecl{obj, fd, cfg.New(fd.Body)})
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].decl.Pos() < decls[j].decl.Pos() })

	sums := &Summaries{funcs: make(map[*types.Func]*FuncSummary, len(decls))}
	conf := base
	conf.Summaries = sums

	// Kind and FromParams only ever grow, so len(decls)+1 passes suffice;
	// in practice one or two do.
	for pass := 0; pass <= len(decls); pass++ {
		changed := false
		for _, d := range decls {
			sum := summarizeFunc(d.decl, d.g, conf)
			old := sums.funcs[d.obj]
			if old == nil || *old != *sum {
				sums.funcs[d.obj] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return sums
}

// summarizeFunc runs the taint analysis over one function with its
// parameters pre-seeded with placeholder param taints, then merges the
// taint of every returned value.
func summarizeFunc(decl *ast.FuncDecl, g *cfg.Graph, conf TaintConfig) *FuncSummary {
	entry := Fact{}
	var params []*types.Var
	if sig, ok := conf.Info.ObjectOf(decl.Name).Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			params = append(params, sig.Params().At(i))
		}
	}
	for i, p := range params {
		if i < 64 && p.Name() != "" && p.Name() != "_" {
			entry[p] = Taint{Params: 1 << uint(i)}
		}
	}

	p := Problem[Fact]{
		Graph:    g,
		Entry:    entry,
		Bottom:   BottomFact,
		Join:     JoinFacts,
		Equal:    EqualFacts,
		Transfer: conf.Transfer,
	}
	sol := Solve(p)

	var ret Taint
	results := namedResults(conf.Info, decl)
	ForEachNode(p, sol, func(n ast.Node, before Fact) {
		rs, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		if len(rs.Results) == 0 {
			// Bare return: named results carry the value out.
			for _, r := range results {
				ret = ret.merge(before[r])
			}
			return
		}
		for _, e := range rs.Results {
			ret = ret.merge(conf.EvalExpr(before, e))
		}
	})

	sum := &FuncSummary{FromParams: ret.Params}
	ret.Params = 0
	if !ret.Zero() {
		sum.Always = ret
	}
	return sum
}

func namedResults(info *types.Info, decl *ast.FuncDecl) []*types.Var {
	sig, ok := info.ObjectOf(decl.Name).Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	for i := 0; i < sig.Results().Len(); i++ {
		r := sig.Results().At(i)
		if r.Name() != "" {
			out = append(out, r)
		}
	}
	return out
}

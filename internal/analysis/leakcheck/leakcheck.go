// Package leakcheck defines a flow-sensitive analyzer that flags
// goroutines with no joining path.
//
// The router's worker pools are built on a strict discipline: every
// spawned goroutine is either joined by its spawner (a WaitGroup.Wait, a
// channel receive, or a select observed on some CFG path after the spawn
// — deferred joins count, they run at function exit), terminates itself
// by blocking on a channel (receive, range-over-channel, or a select
// including ctx.Done()), or participates in the WaitGroup-field protocol:
// the spawner Adds to a struct WaitGroup field (or the body defers Done
// on one) and some function in the package Waits on that same field —
// the server's New/worker/Shutdown shape.
//
// A go statement satisfying none of these is a leak: under cancellation
// or server shutdown the goroutine keeps running with no one to reap it.
// The check is CFG-based, so a join that is merely textually nearby but
// unreachable from the spawn does not count.
package leakcheck

import (
	"go/ast"
	"go/types"

	"stitchroute/internal/analysis"
	"stitchroute/internal/analysis/cfg"
)

// Analyzer flags goroutines whose spawner has no joining path and whose
// body never blocks on a channel.
var Analyzer = &analysis.Analyzer{
	Name: "leakcheck",
	Doc: "flag goroutines with no joining path: no spawner-side Wait/receive/select after the spawn, no self-terminating body, no package WaitGroup-field discipline\n\n" +
		"Leaked goroutines outlive cancellation and shutdown; the worker-pool discipline requires every spawn to have a reaper.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Package-wide facts for the WaitGroup-field protocol: the set of
	// WaitGroup-typed struct fields some function Waits on.
	waitedFields := map[types.Object]bool{}
	pass.Preorder(func(n ast.Node) bool {
		if f, ok := waitGroupFieldCall(pass, n, "Wait"); ok {
			waitedFields[f] = true
		}
		return true
	})

	// Bodies of package functions, for resolving `go s.worker()`.
	bodies := map[*types.Func]*ast.BlockStmt{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.TypesInfo.ObjectOf(fd.Name).(*types.Func); ok {
					bodies[obj] = fd.Body
				}
			}
		}
	}

	check := func(body *ast.BlockStmt) {
		g := cfg.New(body)
		for _, b := range g.Blocks {
			for i, n := range b.Nodes {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					continue
				}
				if spawnerJoins(pass, g, b, i) {
					continue
				}
				if bodySelfTerminates(pass, gs, bodies) {
					continue
				}
				if waitGroupDiscipline(pass, body, gs, bodies, waitedFields) {
					continue
				}
				pass.Reportf(gs.Pos(), "goroutine is never joined: no Wait/receive/select on any path after the spawn, the body never blocks on a channel, and no WaitGroup-field protocol applies; it outlives cancellation")
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			check(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					check(fl.Body)
				}
				return true
			})
		}
	}
	return nil, nil
}

// spawnerJoins reports whether a join construct (WaitGroup.Wait, channel
// receive, range-over-channel, or select) appears on some CFG path after
// the spawn at node index gi of block b. Deferred statements join too:
// they run at function exit, which every path reaches.
func spawnerJoins(pass *analysis.Pass, g *cfg.Graph, b *cfg.Block, gi int) bool {
	for _, d := range g.Defers {
		if isJoinNode(pass, d) {
			return true
		}
	}
	for _, n := range b.Nodes[gi+1:] {
		if isJoinNode(pass, n) {
			return true
		}
	}
	seen := make([]bool, len(g.Blocks))
	stack := []*cfg.Block{}
	for _, s := range b.Succs {
		if !seen[s.Index] {
			seen[s.Index] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range blk.Nodes {
			if isJoinNode(pass, n) {
				return true
			}
		}
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// isJoinNode reports whether the node blocks the spawner on goroutine
// progress: a WaitGroup.Wait call, a channel receive, or ranging over a
// channel. Receives nested in function literals do not count — they only
// run if that literal does.
func isJoinNode(pass *analysis.Pass, node ast.Node) bool {
	if rng, ok := node.(*ast.RangeStmt); ok {
		if t := pass.TypeOf(rng.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return true
			}
		}
		// Statements of the range body live in other blocks.
		return false
	}
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
				return false
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if isWaitGroup(pass.TypeOf(sel.X)) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// bodySelfTerminates reports whether the goroutine's body blocks on a
// channel (receive, range-over-channel, or select — including
// ctx.Done()): such a goroutine has a shutdown signal it observes.
func bodySelfTerminates(pass *analysis.Pass, gs *ast.GoStmt, bodies map[*types.Func]*ast.BlockStmt) bool {
	body := goBody(pass, gs, bodies)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// goBody resolves the statements the goroutine runs: the literal's body
// for `go func(){...}()`, or the package-local callee's body for
// `go s.worker()`.
func goBody(pass *analysis.Pass, gs *ast.GoStmt, bodies map[*types.Func]*ast.BlockStmt) *ast.BlockStmt {
	if fl, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return fl.Body
	}
	var obj types.Object
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.ObjectOf(fun.Sel)
	}
	if fn, ok := obj.(*types.Func); ok {
		return bodies[fn]
	}
	return nil
}

// waitGroupDiscipline checks the worker-pool protocol: the spawner Adds
// to a WaitGroup struct field (or the body defers Done on one), and some
// function in the package Waits on that same field.
func waitGroupDiscipline(pass *analysis.Pass, spawner *ast.BlockStmt, gs *ast.GoStmt, bodies map[*types.Func]*ast.BlockStmt, waitedFields map[types.Object]bool) bool {
	// Fields Added in the spawning function.
	ok := false
	ast.Inspect(spawner, func(n ast.Node) bool {
		if ok {
			return false
		}
		if f, is := waitGroupFieldCall(pass, n, "Add"); is && waitedFields[f] {
			ok = true
		}
		return true
	})
	if ok {
		return true
	}
	// Fields Done'd in the goroutine body.
	body := goBody(pass, gs, bodies)
	if body == nil {
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		if f, is := waitGroupFieldCall(pass, n, "Done"); is && waitedFields[f] {
			ok = true
		}
		return true
	})
	return ok
}

// waitGroupFieldCall matches `x.f.<method>()` where f is a struct field
// of type sync.WaitGroup, returning the field object.
func waitGroupFieldCall(pass *analysis.Pass, n ast.Node, method string) (types.Object, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, false
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	obj := pass.TypesInfo.ObjectOf(field.Sel)
	if obj == nil || !isWaitGroup(obj.Type()) {
		return nil, false
	}
	if v, ok := obj.(*types.Var); !ok || !v.IsField() {
		return nil, false
	}
	return obj, true
}

func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

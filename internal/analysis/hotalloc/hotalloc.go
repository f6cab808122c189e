// Package hotalloc defines a flow-sensitive analyzer that finds heap
// allocations on the routers' per-net search hot paths.
//
// PR 4 moved every per-search allocation into per-worker searchCtx
// arenas so the steady-state A* loop performs zero heap allocations. That
// invariant is easy to erode: a make hidden behind a helper call, an
// append to a fresh slice, a closure created inside the expansion loop.
// This analyzer rebuilds the per-net call graph from its roots (routeNet
// and the global router's astar by default), classifies which functions
// execute inside the per-net search loop, and flags allocations there:
//
//   - make/new calls and slice/map composite literals
//   - append growth of slices that are not arena-backed
//   - closures created inside a loop (closure capture allocates)
//   - interface boxing (concrete values passed to interface parameters
//     or assigned to interface variables)
//
// The allowlist covers one-time setup dominated by function entry: in a
// root function only allocations inside loops are flagged, and
// assignments that grow an arena (a field of an ArenaTypes struct, or a
// local derived from one, like `rev := sc.rev[:0]`) are always allowed —
// that is what the arenas are for. Functions called from inside a search
// loop are per-iteration in their entirety, so every allocation in them
// is flagged, not just the looped ones.
package hotalloc

import (
	"go/ast"
	"go/types"
	"sort"

	"stitchroute/internal/analysis"
	"stitchroute/internal/analysis/cfg"
)

// Roots names the functions whose call trees form the per-net hot path:
// the detailed router's per-net search, the global router's tile A*,
// the DRC's per-net check and the branch-and-bound solver's search.
var Roots = map[string]bool{"routeNet": true, "astar": true, "checkNet": true, "dfs": true}

// ArenaTypes names the arena struct types: allocations that grow them
// are the sanctioned way to allocate, and slices derived from their
// fields are reusable scratch.
var ArenaTypes = map[string]bool{"searchCtx": true, "cellHeap": true, "searchArena": true, "fHeap": true, "checkScratch": true, "solver": true}

// Analyzer flags heap allocations on the per-net search hot path.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flag make/new/append-growth/closure/boxing allocations reachable inside the per-net search loops\n\n" +
		"The search arenas make the steady-state searches allocation-free; this analyzer walks the call graph from routeNet, the global astar, the DRC's checkNet and the branch-and-bound dfs and keeps it that way.",
	Packages: []string{"internal/detail", "internal/global", "internal/fracture", "internal/stencil", "internal/eco", "internal/drc", "internal/ilp"},
	Run:      run,
}

type funcInfo struct {
	obj   *types.Func
	decl  *ast.FuncDecl
	graph *cfg.Graph
}

func run(pass *analysis.Pass) (interface{}, error) {
	infos := collectFuncs(pass)
	if len(infos) == 0 {
		return nil, nil
	}
	byObj := make(map[*types.Func]*funcInfo, len(infos))
	for _, fi := range infos {
		byObj[fi.obj] = fi
	}

	// Call edges, each tagged with whether the call site sits inside a
	// loop of the caller.
	type edge struct {
		to     *types.Func
		inLoop bool
	}
	edges := make(map[*types.Func][]edge, len(infos))
	for _, fi := range infos {
		inLoop := fi.graph.InLoop()
		for _, b := range fi.graph.Blocks {
			for _, n := range b.Nodes {
				loop := inLoop[b.Index]
				ast.Inspect(n, func(m ast.Node) bool {
					// Calls inside a function literal run whenever the
					// literal does; treat them as loop calls only if the
					// literal is created in a loop. (The conservative
					// per-iteration cost is charged to the literal's own
					// body via loopCalled below.)
					if _, ok := m.(*ast.FuncLit); ok && m != n {
						return false
					}
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := staticCallee(pass, call); callee != nil {
						if _, local := byObj[callee]; local {
							edges[fi.obj] = append(edges[fi.obj], edge{callee, loop})
						}
					}
					return true
				})
			}
		}
	}

	// Hot = reachable from the roots; loopCalled = runs per iteration of
	// some search loop (called from a loop, or called at all from a
	// function that itself runs per iteration).
	hot := make(map[*types.Func]bool)
	var queue []*types.Func
	for _, fi := range infos {
		if Roots[fi.obj.Name()] {
			hot[fi.obj] = true
			queue = append(queue, fi.obj)
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, e := range edges[f] {
			if !hot[e.to] {
				hot[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	loopCalled := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for f := range hot {
			for _, e := range edges[f] {
				if (e.inLoop || loopCalled[f]) && !loopCalled[e.to] {
					loopCalled[e.to] = true
					changed = true
				}
			}
		}
	}

	for _, fi := range infos {
		if !hot[fi.obj] {
			continue
		}
		derived := derivedSet(pass, fi.decl)
		checkGraph(pass, fi.graph, loopCalled[fi.obj], derived, fi.obj.Name())
		// Function literals have their own graphs; a literal in a
		// per-iteration function is itself per-iteration.
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkGraph(pass, cfg.New(fl.Body), loopCalled[fi.obj], derived, fi.obj.Name())
			}
			return true
		})
	}
	return nil, nil
}

func collectFuncs(pass *analysis.Pass) []*funcInfo {
	var out []*funcInfo
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.ObjectOf(fd.Name).(*types.Func)
			if !ok {
				continue
			}
			out = append(out, &funcInfo{obj: obj, decl: fd, graph: cfg.New(fd.Body)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].decl.Pos() < out[j].decl.Pos() })
	return out
}

func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// checkGraph flags allocations in one function body (or literal body).
// flagAll marks a function that runs per loop iteration: everything in it
// is hot. Otherwise only blocks inside the function's own loops flag.
func checkGraph(pass *analysis.Pass, g *cfg.Graph, flagAll bool, derived map[types.Object]bool, fname string) {
	inLoop := g.InLoop()
	where := "inside the per-net search loop"
	if flagAll {
		where = "in " + fname + ", which runs per search-loop iteration"
	}
	for _, b := range g.Blocks {
		flagHere := flagAll || inLoop[b.Index]
		for _, n := range b.Nodes {
			checkNode(pass, n, flagHere, inLoop[b.Index], derived, where)
		}
	}
}

func checkNode(pass *analysis.Pass, node ast.Node, flagHere, inLoopBlock bool, derived map[types.Object]bool, where string) {
	// Map allocation calls to their assignment target, so arena growth
	// (sc.nodes = make(...)) can be allowed.
	assignTarget := map[*ast.CallExpr]ast.Expr{}
	var rangeBody *ast.BlockStmt
	if rng, ok := node.(*ast.RangeStmt); ok {
		rangeBody = rng.Body
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil || n == ast.Node(rangeBody) {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					assignTarget[call] = as.Lhs[i]
				}
			}
		}
		return true
	})

	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil || n == ast.Node(rangeBody) {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// The closure's captured-variable record is heap-allocated
			// each time the literal is evaluated; creating one per loop
			// iteration defeats the arena. Entry-created closures are
			// one-time setup and fine.
			if inLoopBlock {
				pass.Reportf(n.Pos(), "closure created %s allocates its capture record every iteration; hoist it to function entry", where)
			}
			return false
		case *ast.CompositeLit:
			if !flagHere || pass.TypeOf(n) == nil {
				return true
			}
			switch pass.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "%s literal %s allocates; use the searchCtx arena", litKind(pass, n), where)
			}
			return true
		case *ast.CallExpr:
			if !flagHere {
				return true
			}
			checkCall(pass, n, assignTarget[n], derived, where)
			return true
		}
		return true
	})
}

func litKind(pass *analysis.Pass, n *ast.CompositeLit) string {
	if _, ok := pass.TypeOf(n).Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, target ast.Expr, derived map[types.Object]bool, where string) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				// Arena growth is the sanctioned allocation: the result
				// must land in an arena field.
				if target != nil && isArenaExpr(pass, target, nil) {
					return
				}
				pass.Reportf(call.Pos(), "%s %s; route the buffer through the searchCtx arena or hoist it to setup", id.Name, where)
			case "append":
				// Appending to arena-backed storage reuses its capacity;
				// growth is amortized arena growth. Anything else is a
				// fresh heap slice on the hot path.
				if len(call.Args) > 0 && isArenaExpr(pass, call.Args[0], derived) {
					return
				}
				pass.Reportf(call.Pos(), "append growth of non-arena slice %s; use an arena-backed slice (e.g. sc scratch resliced to [:0])", where)
			}
			return
		}
	}
	// Interface boxing: a concrete value passed where an interface is
	// expected is copied to the heap.
	callee := staticCallee(pass, call)
	if callee == nil {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= params.Len()-1 {
			pi = params.Len() - 1
		}
		if pi >= params.Len() {
			break
		}
		pt := params.At(pi).Type()
		if sig.Variadic() && pi == params.Len()-1 {
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "interface boxing of %s argument %s; keep hot-path signatures concrete", at.String(), where)
	}
}

// isArenaExpr reports whether the expression is rooted in an arena-typed
// object or in a local derived from one.
func isArenaExpr(pass *analysis.Pass, e ast.Expr, derived map[types.Object]bool) bool {
	obj := rootObject(pass, e)
	if obj == nil {
		return false
	}
	if derived != nil && derived[obj] {
		return true
	}
	return isArenaType(obj.Type())
}

func isArenaType(t types.Type) bool {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Slice:
			t = x.Elem()
		case *types.Named:
			if ArenaTypes[x.Obj().Name()] {
				return true
			}
			return false
		default:
			return false
		}
	}
}

func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(x)
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// derivedSet computes, to a fixpoint, the locals of fn that alias arena
// storage: assigned from an arena-rooted expression (`rev := sc.rev[:0]`,
// `pq := &sc.heap`, `nodes := sc.nodes`) or from an append to something
// already derived.
func derivedSet(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	derived := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(id)
				if obj == nil || derived[obj] {
					continue
				}
				src := ast.Unparen(as.Rhs[i])
				if call, ok := src.(*ast.CallExpr); ok {
					// append(derived, ...) keeps the derivation.
					if cid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && cid.Name == "append" && len(call.Args) > 0 {
						src = ast.Unparen(call.Args[0])
					}
				}
				if isArenaExpr(pass, src, derived) {
					derived[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return derived
}

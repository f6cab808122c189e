// Package lockdiscipline defines an analyzer that reviews what happens
// while a sync.Mutex or sync.RWMutex is held.
//
// The job server's PR 1 review found two races of the same shape: a
// channel operation performed with inconsistent lock coverage (a
// send-on-closed-channel between submit and Shutdown, and a queue-full
// rollback that corrupted the job index). The rule distilled from that
// review: critical sections must stay small and non-blocking. While a
// mutex is held, the analyzer flags
//
//   - channel sends and receives (they can block forever, and their
//     lock coverage must be deliberate);
//   - close() of a channel (the send/close discipline is exactly where
//     the PR 1 race lived — every close under a lock must explain which
//     sends it is ordered against);
//   - blocking calls: time.Sleep, (*sync.WaitGroup).Wait,
//     (*sync.Cond).Wait, (*sync.Once).Do;
//   - HTTP response writes (an http.ResponseWriter receiver or argument)
//     — a slow client must never extend a critical section.
//
// Channel operations inside a select that has a default case are
// non-blocking and exempt. Sites where the pattern is deliberate (the
// server intentionally sends and closes its queue under s.mu so the two
// can never race) carry a //lint:ignore lockdiscipline directive whose
// reason documents the invariant.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"stitchroute/internal/analysis"
)

// Analyzer flags blocking or channel operations inside mutex critical
// sections.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "flag channel operations, blocking calls, and HTTP writes while a sync.Mutex/RWMutex is held\n\n" +
		"Critical sections must be small and non-blocking; channel sends/closes under a lock must be deliberate and documented (the PR 1 submit/Shutdown race class).",
	Run: run,
}

// held tracks which lock expressions (rendered as source, e.g. "s.mu")
// are locked at a program point.
type held map[string]token.Pos

func (h held) clone() held {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// any returns an arbitrary-but-deterministic held lock name for
// diagnostics (the lexically smallest).
func (h held) any() string {
	name := ""
	for k := range h {
		if name == "" || k < name {
			name = k
		}
	}
	return name
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					walkStmts(pass, fn.Body.List, make(held))
				}
				return false
			case *ast.FuncLit:
				// Reached only for file-scope literals; function
				// literals inside bodies are walked (with a fresh
				// lock state) from walkStmts.
				walkStmts(pass, fn.Body.List, make(held))
				return false
			}
			return true
		})
	}
	return nil, nil
}

// lockMethod classifies a call as a sync mutex operation on a rendered
// lock expression. ok is false for anything else.
func lockMethod(pass *analysis.Pass, call *ast.CallExpr) (lockExpr, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	f, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFunc || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch f.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	sig := f.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return "", "", false
	}
	t := recv.Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return types.ExprString(sel.X), f.Name(), true
	}
	return "", "", false
}

// walkStmts interprets a statement list sequentially, threading the held
// set through lock/unlock calls and flagging violations while any lock is
// held. Nested control flow is analyzed with a copy of the state
// (conservative: a branch-local unlock does not clear the lock for the
// fall-through path, matching the usual lock-then-early-exit idiom).
func walkStmts(pass *analysis.Pass, stmts []ast.Stmt, h held) {
	for _, stmt := range stmts {
		walkStmt(pass, stmt, h)
	}
}

func walkStmt(pass *analysis.Pass, stmt ast.Stmt, h held) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if lockExpr, method, ok := lockMethod(pass, call); ok {
				switch method {
				case "Lock", "RLock":
					h[lockExpr] = call.Pos()
				case "Unlock", "RUnlock":
					delete(h, lockExpr)
				}
				return
			}
		}
		checkExpr(pass, s.X, h)

	case *ast.DeferStmt:
		// `defer mu.Unlock()` keeps the lock held to function end;
		// no state change either way. Other deferred calls run
		// outside the critical section.

	case *ast.GoStmt:
		// The goroutine body runs concurrently, not under this
		// lock; analyze it with a fresh state.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			walkStmts(pass, lit.Body.List, make(held))
		}
		for _, arg := range s.Call.Args {
			checkExpr(pass, arg, h)
		}

	case *ast.SendStmt:
		if len(h) > 0 {
			pass.Reportf(s.Pos(),
				"channel send while %s is held: a blocked receiver extends the critical section indefinitely (review send/close ordering, cf. the PR 1 submit race)",
				h.any())
		}
		checkExpr(pass, s.Value, h)

	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			checkExpr(pass, e, h)
		}
		for _, e := range s.Lhs {
			checkExpr(pass, e, h)
		}

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						checkExpr(pass, v, h)
					}
				}
			}
		}

	case *ast.ReturnStmt:
		for _, e := range s.Results {
			checkExpr(pass, e, h)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, h)
		}
		checkExpr(pass, s.Cond, h)
		walkStmts(pass, s.Body.List, h.clone())
		if s.Else != nil {
			walkStmt(pass, s.Else, h.clone())
		}

	case *ast.ForStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, h)
		}
		if s.Cond != nil {
			checkExpr(pass, s.Cond, h)
		}
		walkStmts(pass, s.Body.List, h.clone())

	case *ast.RangeStmt:
		checkExpr(pass, s.X, h)
		walkStmts(pass, s.Body.List, h.clone())

	case *ast.SwitchStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, h)
		}
		if s.Tag != nil {
			checkExpr(pass, s.Tag, h)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				walkStmts(pass, cc.Body, h.clone())
			}
		}

	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				walkStmts(pass, cc.Body, h.clone())
			}
		}

	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && len(h) > 0 {
			pass.Reportf(s.Pos(),
				"blocking select while %s is held: no default case, so the critical section waits on channel peers",
				h.any())
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				walkStmts(pass, cc.Body, h.clone())
			}
		}

	case *ast.BlockStmt:
		walkStmts(pass, s.List, h)

	case *ast.LabeledStmt:
		walkStmt(pass, s.Stmt, h)
	}
}

// checkExpr flags violating operations inside an expression evaluated
// while locks are held. Function literals are analyzed separately with an
// empty lock state (their execution point is unknown).
func checkExpr(pass *analysis.Pass, expr ast.Expr, h held) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			walkStmts(pass, n.Body.List, make(held))
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(h) > 0 {
				pass.Reportf(n.Pos(),
					"channel receive while %s is held: the critical section blocks until a peer sends", h.any())
			}
		case *ast.CallExpr:
			if len(h) > 0 {
				checkCall(pass, n, h)
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, h held) {
	// close(ch) under a lock: exactly the send/close discipline the
	// PR 1 race was about.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" {
		if _, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin {
			pass.Reportf(call.Pos(),
				"close of channel while %s is held: document which sends this close is ordered against", h.any())
			return
		}
	}

	if f := calleeFunc(pass, call); f != nil && f.Pkg() != nil {
		switch {
		case f.Pkg().Path() == "time" && f.Name() == "Sleep":
			pass.Reportf(call.Pos(), "time.Sleep while %s is held", h.any())
		case f.Pkg().Path() == "sync" && (f.Name() == "Wait" || f.Name() == "Do"):
			recv := "sync"
			if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
				recv = types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return p.Name() })
			}
			pass.Reportf(call.Pos(), "blocking call (%s).%s while %s is held", recv, f.Name(), h.any())
		}
	}

	// HTTP response writes: receiver or any argument typed
	// http.ResponseWriter means a slow client controls the critical
	// section.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isResponseWriter(pass.TypeOf(sel.X)) {
		pass.Reportf(call.Pos(), "HTTP response write while %s is held: slow clients extend the critical section", h.any())
		return
	}
	for _, arg := range call.Args {
		if isResponseWriter(pass.TypeOf(arg)) {
			pass.Reportf(call.Pos(), "HTTP response write while %s is held: slow clients extend the critical section", h.any())
			return
		}
	}
}

func isResponseWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "ResponseWriter"
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

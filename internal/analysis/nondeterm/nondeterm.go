// Package nondeterm defines a flow-sensitive analyzer that tracks
// nondeterministic values through assignment chains and helper calls and
// flags them when they reach routing state.
//
// A syntactic check only recognizes a source and a sink in the same
// statement or loop body. This analyzer runs a taint analysis over each
// function's control-flow graph instead, so the c18208f bug class (the
// global A* seeding its heap in map order) is caught even when the
// nondeterministic value travels through any number of local
// assignments or package-local helper calls before it lands in a heap,
// a cost field, or output geometry.
//
// Sources (Value taint — the value itself differs between runs):
//   - time.Now / time.Since / time.Until
//   - math/rand and math/rand/v2 package-level functions (the global,
//     nondeterministically-seeded RNG); rand.NewSource/NewPCG with a
//     non-constant seed. A *rand.Rand built from a constant seed is
//     deterministic and stays clean.
//   - fmt formatting with %p (pointer addresses change between runs)
//
// Sources (Order taint — stable set, unstable draw order):
//   - ranging over a map
//   - values received in a select with two or more communication cases
//
// Sinks: writes into struct fields, slice/array elements, channel sends,
// and heap Push/push arguments. Telemetry is exempt — fields of type
// time.Duration/time.Time or whose name speaks of timing or statistics
// may hold wall-clock values; they are reporting, not routing. Map-index
// writes are exempt from Order taint only (writing a map in iteration
// order still builds the same map). Sorting a value launders Order taint,
// as does commutative integer accumulation (+=, |=, ^=, &=) — both yield
// order-independent results.
package nondeterm

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"stitchroute/internal/analysis"
	"stitchroute/internal/analysis/cfg"
	"stitchroute/internal/analysis/dataflow"
)

// Analyzer flags nondeterministic values flowing into routing state. Taint
// flows through helper calls via intra-package summaries.
var Analyzer = &analysis.Analyzer{
	Name: "nondeterm",
	Doc: "track nondeterministic values (wall clock, global RNG, map order, select order, pointer text) through dataflow into routing state\n\n" +
		"Byte-identical reroutes are a hard invariant; this analyzer follows taint through assignment chains and package-local helper calls, which a syntactic check cannot.",
	Packages: []string{
		"internal/global", "internal/detail", "internal/core",
		"internal/steiner", "internal/track", "internal/plan",
		"internal/fracture", "internal/stencil", "internal/eco",
	},
	Run: run,
}

// telemetryName matches field names that hold timing or statistics:
// legitimate homes for wall-clock values.
var telemetryName = regexp.MustCompile(`(?i)(time|elapsed|duration|seed|stamp|start|wall|bench|stat)`)

// taintConf builds the package-specific taint configuration.
func taintConf(info *types.Info, files []*ast.File) dataflow.TaintConfig {
	return dataflow.TaintConfig{
		Info:       info,
		SourceCall: sourceClassifier(info),
		SelectRecv: markMultiSelects(files),
		ExemptWrite: func(lhs ast.Expr) bool {
			// A write into a telemetry field is a sanctioned sink; it
			// must not weak-update the enclosing struct, or one Times
			// write would taint every value later derived from it.
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			return ok && telemetryField(info, sel)
		},
	}
}

func run(pass *analysis.Pass) (interface{}, error) {
	conf := taintConf(pass.TypesInfo, pass.Files)
	conf.Summaries = dataflow.ComputeSummaries(pass.Files, conf)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, conf, fd.Body)
			// Function literals get their own graphs: their bodies are
			// not part of the enclosing CFG. Captured variables start
			// clean (conservatively under-tainted; sources inside the
			// literal are still tracked).
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, conf, fl.Body)
				}
				return true
			})
		}
	}
	return nil, nil
}

func checkBody(pass *analysis.Pass, conf dataflow.TaintConfig, body *ast.BlockStmt) {
	p := dataflow.Problem[dataflow.Fact]{
		Graph:    cfg.New(body),
		Entry:    dataflow.Fact{},
		Bottom:   dataflow.BottomFact,
		Join:     dataflow.JoinFacts,
		Equal:    dataflow.EqualFacts,
		Transfer: conf.Transfer,
	}
	sol := dataflow.Solve(p)
	dataflow.ForEachNode(p, sol, func(n ast.Node, before dataflow.Fact) {
		checkNode(pass, conf, n, before)
	})
}

// checkNode runs the sink checks on one CFG node. Function-literal and
// range bodies are skipped: their statements live in other blocks (range)
// or other graphs (literals) and must not be double-visited with the
// wrong fact.
func checkNode(pass *analysis.Pass, conf dataflow.TaintConfig, node ast.Node, before dataflow.Fact) {
	var rangeBody *ast.BlockStmt
	if rng, ok := node.(*ast.RangeStmt); ok {
		rangeBody = rng.Body
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == ast.Node(rangeBody) {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAssignSinks(pass, conf, n, before)
		case *ast.SendStmt:
			if t := conf.EvalExpr(before, n.Value); t.Kind != 0 {
				report(pass, n.Pos(), "value sent on channel", t)
			}
		case *ast.CallExpr:
			checkPushSink(pass, conf, n, before)
		}
		return true
	})
}

// checkAssignSinks flags tainted values written into persistent state:
// struct fields, slice/array elements, and pointer targets. Plain local
// variables are propagation, not sinks.
func checkAssignSinks(pass *analysis.Pass, conf dataflow.TaintConfig, n *ast.AssignStmt, before dataflow.Fact) {
	rhs := make([]dataflow.Taint, len(n.Lhs))
	switch {
	case len(n.Rhs) == len(n.Lhs):
		for i, e := range n.Rhs {
			rhs[i] = conf.EvalExpr(before, e)
		}
	case len(n.Rhs) == 1:
		t := conf.EvalExpr(before, n.Rhs[0])
		for i := range rhs {
			rhs[i] = t
		}
	}
	for i, lhs := range n.Lhs {
		t := rhs[i]
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			// Mirror the transfer function's laundering: commutative
			// integer accumulation is order-independent.
			if augCommutative(n.Tok) && isIntegerType(conf.Info.TypeOf(lhs)) {
				t.Kind &^= dataflow.Order
			}
		}
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			// A tainted index means the write lands somewhere different
			// each run, which corrupts the result as surely as a tainted
			// value does.
			t = t.Merge(conf.EvalExpr(before, idx.Index))
		}
		if t.Kind == 0 {
			continue
		}
		switch target := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			if xt := conf.Info.TypeOf(target.X); xt != nil {
				if _, isMap := xt.Underlying().(*types.Map); isMap {
					// Building a map in map order is still a set: only
					// Value taint makes the contents differ.
					t.Kind &^= dataflow.Order
					if t.Kind == 0 {
						continue
					}
				}
			}
			report(pass, n.Pos(), "element of "+types.ExprString(target.X), t)
		case *ast.SelectorExpr:
			if telemetryField(conf.Info, target) {
				continue
			}
			report(pass, n.Pos(), "field "+types.ExprString(target), t)
		case *ast.StarExpr:
			report(pass, n.Pos(), "target of "+types.ExprString(target), t)
		}
	}
}

// checkPushSink flags tainted heap-push arguments: the pop order (and
// every tie-break downstream) then differs between runs.
func checkPushSink(pass *analysis.Pass, conf dataflow.TaintConfig, call *ast.CallExpr, before dataflow.Fact) {
	name := ""
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if name != "Push" && name != "push" {
		return
	}
	for _, a := range call.Args {
		if t := conf.EvalExpr(before, a); t.Kind != 0 {
			report(pass, call.Pos(), "heap push argument", t)
			return
		}
	}
}

func report(pass *analysis.Pass, pos token.Pos, sink string, t dataflow.Taint) {
	kind := "nondeterministic"
	switch {
	case t.Kind&dataflow.Value != 0:
		kind = "run-dependent"
	case t.Kind&dataflow.Order != 0:
		kind = "iteration-order-dependent"
	}
	src := t.Why
	if src == "" {
		src = "nondeterministic source"
	}
	where := ""
	if t.Pos.IsValid() {
		p := pass.Fset.Position(t.Pos)
		where = " at line " + itoa(p.Line)
	}
	pass.Reportf(pos, "%s value reaches %s: tainted by %s%s; reroutes stop being byte-identical", kind, sink, src, where)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// telemetryField reports whether the assigned field may legitimately hold
// wall-clock data: typed as time.Duration/time.Time, or named like a
// timing/statistics field.
func telemetryField(info *types.Info, sel *ast.SelectorExpr) bool {
	if telemetryName.MatchString(sel.Sel.Name) {
		return true
	}
	obj := info.ObjectOf(sel.Sel)
	if obj == nil {
		return false
	}
	return isTimeType(obj.Type())
}

func isTimeType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == "time" && (obj.Name() == "Duration" || obj.Name() == "Time")
}

func augCommutative(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}

func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// sourceClassifier builds the TaintConfig source hook for this package.
func sourceClassifier(info *types.Info) func(*ast.CallExpr) (dataflow.Taint, bool) {
	return func(call *ast.CallExpr) (dataflow.Taint, bool) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return dataflow.Taint{}, false
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return dataflow.Taint{}, false
		}
		pkgName, ok := info.ObjectOf(id).(*types.PkgName)
		if !ok {
			return dataflow.Taint{}, false
		}
		name := sel.Sel.Name
		switch pkgName.Imported().Path() {
		case "time":
			switch name {
			case "Now", "Since", "Until":
				return dataflow.Taint{Kind: dataflow.Value, Why: "time." + name, Pos: call.Pos()}, true
			}
		case "math/rand", "math/rand/v2":
			switch name {
			case "New":
				// rand.New(src): deterministic iff the source is. Let
				// normal argument propagation decide.
				return dataflow.Taint{}, false
			case "NewSource", "NewPCG", "NewChaCha8":
				// Constant seed ⇒ reproducible stream.
				if allConstArgs(info, call) {
					return dataflow.Taint{}, false
				}
				return dataflow.Taint{Kind: dataflow.Value, Why: "rand." + name + " with non-constant seed", Pos: call.Pos()}, true
			default:
				// Package-level functions draw from the global RNG,
				// seeded nondeterministically at startup.
				return dataflow.Taint{Kind: dataflow.Value, Why: "math/rand global " + name, Pos: call.Pos()}, true
			}
		case "fmt":
			if formatsPointer(call) {
				return dataflow.Taint{Kind: dataflow.Value, Why: "pointer formatting (%p)", Pos: call.Pos()}, true
			}
		}
		return dataflow.Taint{}, false
	}
}

// allConstArgs reports whether every argument is a typed or untyped
// constant expression.
func allConstArgs(info *types.Info, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		tv, ok := info.Types[a]
		if !ok || tv.Value == nil || tv.Value.Kind() == constant.Unknown {
			return false
		}
	}
	return len(call.Args) > 0
}

// formatsPointer reports whether any constant string argument of a fmt
// call contains the %p verb.
func formatsPointer(call *ast.CallExpr) bool {
	for _, a := range call.Args {
		lit, ok := ast.Unparen(a).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			continue
		}
		if strings.Contains(lit.Value, "%p") {
			return true
		}
	}
	return false
}

// markMultiSelects marks the communication statements of every select
// with two or more communication cases: when several channels are ready,
// which case fires is scheduling-dependent.
func markMultiSelects(files []*ast.File) map[ast.Stmt]bool {
	out := map[ast.Stmt]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			var comms []ast.Stmt
			for _, cl := range sel.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					comms = append(comms, cc.Comm)
				}
			}
			if len(comms) >= 2 {
				for _, c := range comms {
					out[c] = true
				}
			}
			return true
		})
	}
	return out
}

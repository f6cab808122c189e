package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Kind classifies what is nondeterministic about a tainted value. The
// distinction matters because the launder operations differ: sorting a
// slice restores determinism when only the *order* of its elements was
// scheduling-dependent, but no amount of sorting fixes a wall-clock or
// random *value*.
type Kind uint8

const (
	// Value taint: the value itself differs between runs (time.Now,
	// math/rand with a nondeterministic seed, pointer formatting).
	Value Kind = 1 << iota
	// Order taint: the value is drawn from a set that is stable between
	// runs, but the order of drawing is not (map iteration, select
	// arrival). Sorting, or accumulating commutatively into an integer,
	// launders it.
	Order
)

// Taint is the per-object fact: which kinds of nondeterminism reach the
// object, where the original source is, and — in summary mode — which
// parameters the taint is conditional on.
type Taint struct {
	Kind Kind
	Why  string    // human description of the source, e.g. "time.Now()"
	Pos  token.Pos // position of the source
	// Params is a bitmask of function parameters whose taint flows here;
	// used while computing call summaries. Zero for absolute taints.
	Params uint64
}

// Zero reports whether the taint is absent.
func (t Taint) Zero() bool { return t.Kind == 0 && t.Params == 0 }

// Merge unions two taints; analyzers use it to combine taint from
// several subexpressions of one sink.
func (t Taint) Merge(o Taint) Taint { return t.merge(o) }

// merge unions two taints, keeping the earliest source position so
// diagnostics are deterministic.
func (t Taint) merge(o Taint) Taint {
	if t.Zero() {
		return o
	}
	if o.Zero() {
		return t
	}
	out := t
	out.Kind |= o.Kind
	out.Params |= o.Params
	if t.Why == "" || (o.Why != "" && o.Pos < t.Pos) {
		out.Why, out.Pos = o.Why, o.Pos
	}
	return out
}

// Fact is the dataflow fact: the set of tainted objects. Facts are
// treated as immutable by the solver; transfer copies on write.
type Fact map[types.Object]Taint

// TaintConfig parameterizes the reusable taint transfer function.
type TaintConfig struct {
	Info *types.Info

	// SourceCall classifies a call as an absolute taint source (e.g.
	// time.Now, math/rand's global functions). Optional.
	SourceCall func(call *ast.CallExpr) (Taint, bool)

	// Summaries resolves intra-package calls; nil disables.
	Summaries *Summaries

	// SelectRecv marks comm statements of selects with two or more
	// communication cases: their received values are order-tainted.
	// Optional.
	SelectRecv map[ast.Stmt]bool

	// ExemptWrite, when non-nil, exempts a field/index/pointer write
	// from weak-updating its root object. Clients use it for sanctioned
	// sinks (telemetry fields holding wall-clock data): without the
	// exemption one Times-field write would poison the whole result
	// struct and every value derived from it. Optional.
	ExemptWrite func(lhs ast.Expr) bool
}

// Lattice plumbing for Problem[Fact].

// BottomFact returns the least element.
func BottomFact() Fact { return nil }

// JoinFacts unions two facts without mutating either.
func JoinFacts(a, b Fact) Fact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(Fact, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = out[k].merge(v)
	}
	return out
}

// EqualFacts reports semantic equality.
func EqualFacts(a, b Fact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func (c *TaintConfig) set(f Fact, obj types.Object, t Taint) Fact {
	if obj == nil {
		return f
	}
	if t.Zero() {
		if _, ok := f[obj]; !ok {
			return f
		}
		out := make(Fact, len(f))
		for k, v := range f {
			if k != obj {
				out[k] = v
			}
		}
		return out
	}
	if f[obj] == t {
		return f
	}
	out := make(Fact, len(f)+1)
	for k, v := range f {
		out[k] = v
	}
	out[obj] = t
	return out
}

// weaken merges t into obj's taint without ever clearing it (weak update
// for writes through fields, indexes, and pointers).
func (c *TaintConfig) weaken(f Fact, obj types.Object, t Taint) Fact {
	if obj == nil || t.Zero() {
		return f
	}
	return c.set(f, obj, f[obj].merge(t))
}

// rootObject resolves the base object a chain of selectors, indexes,
// slices, derefs, and parens hangs off: for `r.sc.rev[i]` it returns r's
// object. Returns nil for expressions not rooted in an identifier.
func (c *TaintConfig) rootObject(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return c.Info.ObjectOf(x)
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			// A qualified identifier (pkg.Var) roots at the var itself.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := c.Info.ObjectOf(id).(*types.PkgName); isPkg {
					return c.Info.ObjectOf(x.Sel)
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CallExpr:
			// The root of sc.heap.pop() style chains is the receiver.
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				e = sel.X
				continue
			}
			return nil
		default:
			return nil
		}
	}
}

// EvalExpr computes the taint of an expression under fact f.
func (c *TaintConfig) EvalExpr(f Fact, e ast.Expr) Taint {
	switch e := e.(type) {
	case nil:
		return Taint{}
	case *ast.Ident:
		obj := c.Info.ObjectOf(e)
		if obj == nil {
			return Taint{}
		}
		// A function referenced as a value carries its summary's Always
		// taint: binding m := helper and calling m() later must not lose
		// the source inside helper. Parameter-conditional taint cannot
		// survive the indirection (arguments are unknown at bind time),
		// so only Always flows.
		if fn, ok := obj.(*types.Func); ok {
			if sum := c.Summaries.lookup(fn); sum != nil {
				return sum.Always
			}
		}
		return f[obj]
	case *ast.BasicLit, *ast.FuncLit:
		return Taint{}
	case *ast.ParenExpr:
		return c.EvalExpr(f, e.X)
	case *ast.StarExpr:
		return c.EvalExpr(f, e.X)
	case *ast.TypeAssertExpr:
		return c.EvalExpr(f, e.X)
	case *ast.UnaryExpr:
		return c.EvalExpr(f, e.X)
	case *ast.BinaryExpr:
		return c.EvalExpr(f, e.X).merge(c.EvalExpr(f, e.Y))
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := c.Info.ObjectOf(id).(*types.PkgName); isPkg {
				obj := c.Info.ObjectOf(e.Sel)
				if obj == nil {
					return Taint{}
				}
				return f[obj]
			}
		}
		// A method value (m := c.Stamp) closes over the receiver and the
		// method body: it carries the receiver's taint plus the method
		// summary's Always taint.
		if fn, ok := c.Info.ObjectOf(e.Sel).(*types.Func); ok {
			if sum := c.Summaries.lookup(fn); sum != nil {
				return sum.Always.merge(c.EvalExpr(f, e.X))
			}
		}
		return c.EvalExpr(f, e.X)
	case *ast.IndexExpr:
		return c.EvalExpr(f, e.X).merge(c.EvalExpr(f, e.Index))
	case *ast.SliceExpr:
		t := c.EvalExpr(f, e.X)
		t = t.merge(c.EvalExpr(f, e.Low))
		t = t.merge(c.EvalExpr(f, e.High))
		return t.merge(c.EvalExpr(f, e.Max))
	case *ast.CompositeLit:
		var t Taint
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t = t.merge(c.EvalExpr(f, kv.Value))
				continue
			}
			t = t.merge(c.EvalExpr(f, el))
		}
		return t
	case *ast.CallExpr:
		return c.evalCall(f, e)
	}
	return Taint{}
}

func (c *TaintConfig) evalCall(f Fact, call *ast.CallExpr) Taint {
	// Type conversions propagate the operand's taint.
	if tv, ok := c.Info.Types[call.Fun]; ok && tv.IsType() {
		var t Taint
		for _, a := range call.Args {
			t = t.merge(c.EvalExpr(f, a))
		}
		return t
	}
	if c.SourceCall != nil {
		if t, ok := c.SourceCall(call); ok {
			return t
		}
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap", "make", "new", "clear", "delete", "close", "panic", "print", "println", "recover":
				// Deterministic (len of a map is stable) or valueless.
				return Taint{}
			default: // append, copy, min, max, complex, real, imag, abs
				var t Taint
				for _, a := range call.Args {
					t = t.merge(c.EvalExpr(f, a))
				}
				return t
			}
		}
	}
	// Function summary of a same-package callee.
	if c.Summaries != nil {
		if fn := c.calleeFunc(call); fn != nil {
			if sum := c.Summaries.lookup(fn); sum != nil {
				t := sum.Always
				for i, a := range call.Args {
					if i < 64 && sum.FromParams&(1<<uint(i)) != 0 {
						t = t.merge(c.EvalExpr(f, a))
					}
				}
				return t
			}
		}
	}
	// Unknown callee: conservatively propagate argument and receiver
	// taint through the call (math.Abs(t) is as tainted as t). Calling
	// through a function-valued variable also applies the taint the
	// binding carried — the Always taint of a method value or function
	// reference assigned earlier.
	var t Taint
	for _, a := range call.Args {
		t = t.merge(c.EvalExpr(f, a))
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if _, isPkg := c.pkgName(fun.X); !isPkg {
			t = t.merge(c.EvalExpr(f, fun.X))
		}
	case *ast.Ident:
		if _, isVar := c.Info.ObjectOf(fun).(*types.Var); isVar {
			t = t.merge(c.EvalExpr(f, fun))
		}
	}
	return t
}

func (c *TaintConfig) pkgName(e ast.Expr) (*types.PkgName, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil, false
	}
	pn, ok := c.Info.ObjectOf(id).(*types.PkgName)
	return pn, ok
}

// calleeFunc resolves the called *types.Func, or nil. Explicit generic
// instantiation (f[T](...) / f[T1, T2](...)) is unwrapped to the generic
// function: go/types records the use against the origin object, which is
// also what summaries are keyed on, so one summary covers every
// instantiation.
func (c *TaintConfig) calleeFunc(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(x.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(x.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := c.Info.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := c.Info.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// Transfer is the taint transfer function for one CFG node.
func (c *TaintConfig) Transfer(n ast.Node, in Fact) Fact {
	switch n := n.(type) {
	case *ast.AssignStmt:
		out := c.assign(n, in)
		if c.SelectRecv != nil && c.SelectRecv[ast.Stmt(n)] {
			// Received in a select with several ready cases: the value
			// observed first depends on scheduling.
			t := Taint{Kind: Order, Why: "select arrival order", Pos: n.Pos()}
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
					out = c.weaken(out, c.Info.ObjectOf(id), t)
				}
			}
		}
		return out
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return in
		}
		out := in
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				obj := c.Info.ObjectOf(name)
				var t Taint
				switch {
				case len(vs.Values) == len(vs.Names):
					t = c.EvalExpr(out, vs.Values[i])
				case len(vs.Values) == 1:
					t = c.EvalExpr(out, vs.Values[0])
				}
				out = c.set(out, obj, t)
			}
		}
		return out
	case *ast.RangeStmt:
		return c.rangeTransfer(n, in)
	case *ast.ExprStmt:
		// Sorting launders order taint (the set of elements was stable
		// all along; only the draw order wasn't).
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if target := sortedArg(c.Info, call); target != nil {
				obj := c.rootObject(target)
				if obj != nil {
					if t, ok := in[obj]; ok && t.Kind&Order != 0 {
						t.Kind &^= Order
						if t.Zero() {
							return c.set(in, obj, Taint{})
						}
						return c.set(in, obj, t)
					}
				}
			}
		}
		return in
	}
	return in
}

func (c *TaintConfig) assign(n *ast.AssignStmt, in Fact) Fact {
	// Evaluate RHS taints against the pre-state.
	rhs := make([]Taint, len(n.Lhs))
	switch {
	case len(n.Rhs) == len(n.Lhs):
		for i, e := range n.Rhs {
			rhs[i] = c.EvalExpr(in, e)
		}
	case len(n.Rhs) == 1:
		// x, y := f() / v, ok := m[k]: one source taints every target.
		t := c.EvalExpr(in, n.Rhs[0])
		for i := range rhs {
			rhs[i] = t
		}
	}

	out := in
	for i, lhs := range n.Lhs {
		t := rhs[i]
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			// Augmented assignment: x op= v keeps x's taint and may add
			// v's. Commutative accumulation into an integer launders
			// order taint: every iteration order yields the same sum.
			if commutativeOp(n.Tok) && isInteger(c.Info.TypeOf(lhs)) {
				t.Kind &^= Order
				if t.Kind == 0 && t.Params == 0 {
					t = Taint{}
				}
			}
			t = c.EvalExpr(in, lhs).merge(t)
		}
		switch target := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if target.Name == "_" {
				continue
			}
			out = c.set(out, c.Info.ObjectOf(target), t)
		default:
			// Write through a field, index, or pointer: weak update on
			// the root object — the container now carries the taint.
			if c.ExemptWrite != nil && c.ExemptWrite(lhs) {
				continue
			}
			out = c.weaken(out, c.rootObject(lhs), t)
		}
	}
	return out
}

func (c *TaintConfig) rangeTransfer(n *ast.RangeStmt, in Fact) Fact {
	xt := c.EvalExpr(in, n.X)
	var t Taint
	if typ := c.Info.TypeOf(n.X); typ != nil {
		if _, isMap := typ.Underlying().(*types.Map); isMap {
			t = Taint{Kind: Order, Why: "map iteration order", Pos: n.Pos()}
		}
	}
	t = t.merge(xt)
	out := in
	for _, e := range []ast.Expr{n.Key, n.Value} {
		if e == nil {
			continue
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			out = c.set(out, c.Info.ObjectOf(id), t)
		} else {
			out = c.weaken(out, c.rootObject(e), t)
		}
	}
	return out
}

// commutativeOp reports whether x op= v accumulates commutatively (and
// associatively) over integers.
func commutativeOp(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}

func isInteger(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// IsFloat reports whether t is a floating-point type (float accumulation
// is order-sensitive in the last ulp, so order taint survives it).
func IsFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sortedArg returns the expression a sort call orders, or nil: the first
// argument of sort.X(...) / slices.Sort*(...), or the receiver of a
// .Sort() method call.
func sortedArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if pn, ok := info.ObjectOf(id).(*types.PkgName); ok {
			switch pn.Imported().Path() {
			case "sort", "slices":
				if len(call.Args) > 0 {
					return call.Args[0]
				}
				return nil
			}
			return nil
		}
	}
	if sel.Sel.Name == "Sort" {
		return sel.X
	}
	return nil
}

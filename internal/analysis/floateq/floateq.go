// Package floateq defines an analyzer that flags == and != on
// floating-point expressions.
//
// Routing costs are accumulated floats (congestion, half-perimeter,
// stitch penalties); two different evaluation orders of the same cost can
// differ in the last ulp, so exact equality silently turns into
// "usually true". Tie-breaks and convergence tests on float costs must
// use an explicit epsilon (the global router's A* does: re-expansion
// uses nd2 < old-1e-12) or compare the integer quantities the floats
// were derived from (the detail router's A* runs on int32 costs).
//
// Exempt as deliberately exact: comparisons against literal zero (the
// unset-sentinel idiom), x != x / x == x (the NaN test), comparisons of
// two untyped constants, and comparisons against math.Inf(..) or
// math.MaxFloat64-style sentinels written as constants.
package floateq

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"stitchroute/internal/analysis"
)

// Analyzer flags exact floating-point equality comparisons.
var Analyzer = &analysis.Analyzer{
	Name: "floateq",
	Doc: "flag ==/!= on floating-point expressions\n\n" +
		"Float cost comparisons must use an epsilon or compare the underlying integers; exact equality is evaluation-order-dependent.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	pass.Preorder(func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
			return true
		}
		if !isFloat(pass.TypeOf(bin.X)) && !isFloat(pass.TypeOf(bin.Y)) {
			return true
		}
		if exempt(pass, bin) {
			return true
		}
		pass.Reportf(bin.Pos(),
			"floating-point %s comparison (%s %s %s); use an epsilon comparison (math.Abs(a-b) <= eps) or compare the integer source quantities",
			bin.Op, types.ExprString(bin.X), bin.Op, types.ExprString(bin.Y))
		return true
	})
	return nil, nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

func exempt(pass *analysis.Pass, bin *ast.BinaryExpr) bool {
	xv := constValue(pass, bin.X)
	yv := constValue(pass, bin.Y)
	// Both constant: evaluated at compile time, exact by definition.
	if xv != nil && yv != nil {
		return true
	}
	// Comparison against exact zero: the unset-sentinel idiom. Zero is
	// exactly representable and survives every evaluation order.
	if isZero(xv) || isZero(yv) {
		return true
	}
	// x != x / x == x: the NaN test.
	if types.ExprString(bin.X) == types.ExprString(bin.Y) {
		return true
	}
	// Comparison against an infinity sentinel (math.Inf(±1)): Inf is
	// absorbing, so == is exact.
	if isInfCall(pass, bin.X) || isInfCall(pass, bin.Y) {
		return true
	}
	return false
}

func constValue(pass *analysis.Pass, e ast.Expr) constant.Value {
	if pass.TypesInfo == nil {
		return nil
	}
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Value
	}
	return nil
}

func isZero(v constant.Value) bool {
	if v == nil || v.Kind() == constant.Unknown {
		return false
	}
	return constant.Compare(v, token.EQL, constant.MakeInt64(0))
}

func isInfCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && f.Pkg() != nil && f.Pkg().Path() == "math" && (f.Name() == "Inf" || f.Name() == "NaN")
}

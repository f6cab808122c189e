// Package ctxflow defines an analyzer that keeps cancellation flowing
// through the router call graph.
//
// Context enters this program only through the ctx-taking entry points
// (core.RouteContext, global.RouteAllContext, detail.RunContext, the
// server handlers), so any function with a context.Context parameter is
// on the cancellation graph by construction. Inside such a function two
// patterns silently sever cancellation:
//
//  1. manufacturing a fresh context with context.Background() or
//     context.TODO() instead of threading the parameter, and
//  2. calling Foo(...) when a ctx-aware sibling FooContext(ctx, ...)
//     exists — the classic way a deadline stops propagating after a
//     refactor adds *Context variants.
//
// Both cost the job server its ability to cancel long reroutes, which is
// load-bearing: DELETE /v1/jobs and shutdown drain depend on every
// routing stage honoring ctx.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"stitchroute/internal/analysis"
)

// Analyzer flags severed context propagation in ctx-taking functions.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flag ctx-taking functions that detach from their context\n\n" +
		"Functions that accept a context.Context must thread it: calling context.Background()/TODO(), or calling Foo when FooContext exists, silently breaks cancellation of long reroutes.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ctxName := contextParam(pass, fn)
			if ctxName == "" {
				continue
			}
			checkBody(pass, fn, ctxName)
		}
	}
	return nil, nil
}

// contextParam returns the name of fn's first context.Context parameter,
// or "" if it has none.
func contextParam(pass *analysis.Pass, fn *ast.FuncDecl) string {
	if fn.Type.Params == nil {
		return ""
	}
	for _, field := range fn.Type.Params.List {
		if t := pass.TypeOf(field.Type); t != nil && isContextType(t) {
			if len(field.Names) > 0 {
				return field.Names[0].Name
			}
			return "_"
		}
	}
	return ""
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func checkBody(pass *analysis.Pass, fn *ast.FuncDecl, ctxName string) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil {
			return true
		}
		if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "context" &&
			(callee.Name() == "Background" || callee.Name() == "TODO") {
			pass.Reportf(call.Pos(),
				"%s has a context parameter %s but calls context.%s, detaching this call tree from cancellation",
				fn.Name.Name, ctxName, callee.Name())
			return true
		}
		reportDroppedVariant(pass, fn, ctxName, call, callee)
		return true
	})
}

// reportDroppedVariant flags calls to Foo when a FooContext sibling with a
// leading context.Context parameter exists and the callee itself takes no
// context.
func reportDroppedVariant(pass *analysis.Pass, fn *ast.FuncDecl, ctxName string, call *ast.CallExpr, callee *types.Func) {
	name := callee.Name()
	if strings.HasSuffix(name, "Context") {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || takesContext(sig) {
		return
	}
	variant := lookupVariant(pass, callee, name+"Context")
	if variant == nil {
		return
	}
	vsig, ok := variant.Type().(*types.Signature)
	if !ok || !takesContext(vsig) {
		return
	}
	// Unexported variants in another package are not callable here.
	if !variant.Exported() && variant.Pkg() != pass.Pkg {
		return
	}
	pass.Reportf(call.Pos(),
		"%s drops its context %s calling %s; ctx-aware variant %s exists",
		fn.Name.Name, ctxName, name, variant.Name())
}

// lookupVariant finds a function or method named variantName alongside
// callee: in the method set of callee's receiver for methods, in the
// package scope for package-level functions.
func lookupVariant(pass *analysis.Pass, callee *types.Func, variantName string) *types.Func {
	sig := callee.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, callee.Pkg(), variantName)
		if f, ok := obj.(*types.Func); ok {
			return f
		}
		return nil
	}
	pkg := callee.Pkg()
	if pkg == nil {
		return nil
	}
	if f, ok := pkg.Scope().Lookup(variantName).(*types.Func); ok {
		return f
	}
	return nil
}

func takesContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
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

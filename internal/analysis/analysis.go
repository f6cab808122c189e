// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework: an Analyzer is a named check
// that runs over one type-checked package at a time and reports
// position-tagged diagnostics.
//
// The repo vendors no third-party modules (and the build environment is
// offline), so instead of depending on x/tools this package re-creates the
// small slice of its API that the stitchvet analyzers need. Analyzers are
// written exactly as they would be against the real framework — a
// migration to x/tools, should the dependency ever become available, is a
// mechanical import swap.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. By convention it is a single
	// lower-case word.
	Name string

	// Doc is the analyzer's documentation: first line is a one-phrase
	// summary, the rest explains the invariant it enforces.
	Doc string

	// Packages optionally restricts which packages the driver runs
	// this analyzer on. Each entry is matched as a full import path or
	// a path suffix (e.g. "internal/server"). Empty means every
	// package. Test harnesses ignore this field and run the analyzer
	// directly.
	Packages []string

	// Run applies the check to one package.
	Run func(*Pass) (interface{}, error)
}

// Matches reports whether the analyzer's package filter admits the given
// import path.
func (a *Analyzer) Matches(pkgPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if pkgPath == p || strings.HasSuffix(pkgPath, "/"+p) {
			return true
		}
	}
	return false
}

// Pass carries one package's syntax and type information to an analyzer,
// mirroring x/tools' analysis.Pass.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info

	// Report publishes a diagnostic. The driver wires this to its
	// collector; analyzers should normally call Reportf instead.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position in the package's file set and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// TypeOf returns the type of expression e, or nil if unknown. It mirrors
// (*types.Info).TypeOf but tolerates a nil info for robustness in tests.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.TypeOf(e)
}

// Preorder walks every file in the pass in depth-first preorder, calling f
// for each node; if f returns false the node's children are skipped.
func (p *Pass) Preorder(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}

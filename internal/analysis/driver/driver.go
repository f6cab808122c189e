// Package driver runs a set of analyzers over packages and reports their
// diagnostics, honoring staticcheck-style suppression directives.
//
// Suppression: a comment of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// suppresses matching diagnostics on the directive's own line and on the
// line immediately following it (so it works both as an end-of-line
// comment and as a standalone comment above the flagged statement). The
// analyzer list may be "*" to suppress every analyzer. The reason is
// mandatory: a bare directive is itself reported as a diagnostic, so every
// suppression in the tree documents why the invariant is safe to waive.
//
// Packages are loaded, type-checked and analyzed in parallel, up to
// GOMAXPROCS at a time; the output is sorted, so it does not depend on
// the schedule.
package driver

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"stitchroute/internal/analysis"
	"stitchroute/internal/analysis/load"
)

// Diagnostic is a driver-level finding: an analyzer diagnostic bound to
// its position and analyzer name. Suppressed marks diagnostics waived by
// a //lint:ignore directive; they are retained (and emitted in JSON
// mode) so suppressions stay auditable, but do not count toward the exit
// code.
type Diagnostic struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Suppressed bool
}

// Options configures a Run.
type Options struct {
	// Only, when non-empty, restricts the run to analyzers with these
	// names. Unknown names are an error that lists the valid set.
	Only []string
	// Verbose writes a progress line per checked package to Run's out.
	Verbose bool
	// JSON switches output to one JSON object per line (the schema is
	// documented in docs/LINTING.md), including suppressed diagnostics.
	JSON bool
}

// jsonDiagnostic is the wire form of one diagnostic in -json mode.
type jsonDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// directive is one parsed //lint:ignore comment. used flips when any
// diagnostic matches it, which is what the stale-suppression audit keys
// off.
type directive struct {
	analyzers map[string]bool // nil means "*"
	names     string          // the directive's analyzer spec, verbatim
	file      string
	line      int
	col       int
	used      bool
}

// parseDirectives extracts suppression directives from a file's comments.
// Malformed directives (no reason) are reported through report.
func parseDirectives(fset *token.FileSet, file *ast.File, report func(Diagnostic)) []*directive {
	var dirs []*directive
	for _, group := range file.Comments {
		for _, c := range group.List {
			text := c.Text
			if !strings.HasPrefix(text, "//lint:ignore") {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimPrefix(text, "//lint:ignore")
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				report(Diagnostic{
					Analyzer: "stitchvet",
					Pos:      pos,
					Message:  "malformed //lint:ignore directive: want `//lint:ignore <analyzer>[,<analyzer>] <reason>`",
				})
				continue
			}
			d := &directive{names: fields[0], file: pos.Filename, line: pos.Line, col: pos.Column}
			if fields[0] != "*" {
				d.analyzers = make(map[string]bool)
				for _, name := range strings.Split(fields[0], ",") {
					d.analyzers[name] = true
				}
			}
			dirs = append(dirs, d)
		}
	}
	return dirs
}

func (d *directive) matches(diag Diagnostic) bool {
	if diag.Pos.Filename != d.file {
		return false
	}
	if diag.Pos.Line != d.line && diag.Pos.Line != d.line+1 {
		return false
	}
	return d.analyzers == nil || d.analyzers[diag.Analyzer]
}

// selectAnalyzers applies -only filtering. Unknown names produce an
// error that lists the valid analyzer set, so `stitchvet -only=typo`
// exits 2 instead of silently checking nothing.
func selectAnalyzers(analyzers []*analysis.Analyzer, only []string) ([]*analysis.Analyzer, error) {
	if len(only) == 0 {
		return analyzers, nil
	}
	keep := make(map[string]bool)
	for _, name := range only {
		keep[name] = true
	}
	var filtered []*analysis.Analyzer
	for _, a := range analyzers {
		if keep[a.Name] {
			filtered = append(filtered, a)
			delete(keep, a.Name)
		}
	}
	if len(keep) > 0 {
		var unknown []string
		for name := range keep {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		valid := make([]string, len(analyzers))
		for i, a := range analyzers {
			valid[i] = a.Name
		}
		sort.Strings(valid)
		return nil, fmt.Errorf("unknown analyzer(s): %s (valid analyzers: %s)",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	return filtered, nil
}

// analyze loads the packages matching patterns and applies every analyzer
// to every package its Packages scope admits, loading and analyzing up to
// GOMAXPROCS packages at a time. It returns the sorted diagnostics and
// every parsed directive; a directive records whether any diagnostic
// matched it, for the stale-suppression audit.
func analyze(analyzers []*analysis.Analyzer, patterns []string, opts Options, out io.Writer) ([]Diagnostic, []*directive, error) {
	loader, metas, err := load.List(patterns...)
	if err != nil {
		return nil, nil, err
	}
	diags := make([][]Diagnostic, len(metas))
	dirs := make([][]*directive, len(metas))
	errs := make([]error, len(metas))
	var mu sync.Mutex // serializes progress lines
	forEach(len(metas), func(i int) {
		pkg, err := loader.Load(metas[i])
		if err != nil {
			errs[i] = err
			return
		}
		diags[i], dirs[i], errs[i] = analyzePackage(analyzers, pkg)
		if opts.Verbose && errs[i] == nil {
			mu.Lock()
			fmt.Fprintf(out, "stitchvet: checked %s\n", pkg.PkgPath)
			mu.Unlock()
		}
	})
	var allDiags []Diagnostic
	var allDirs []*directive
	for i := range metas {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		allDiags = append(allDiags, diags[i]...)
		allDirs = append(allDirs, dirs[i]...)
	}
	sortDiags(allDiags)
	return allDiags, allDirs, nil
}

// analyzePackage runs the analyzers whose scope admits pkg and marks the
// findings its own //lint:ignore directives suppress.
func analyzePackage(analyzers []*analysis.Analyzer, pkg *load.Package) ([]Diagnostic, []*directive, error) {
	if len(pkg.TypeErrors) > 0 {
		// A package that does not type-check cannot be reliably
		// analyzed; surface the build breakage.
		return nil, nil, fmt.Errorf("package %s does not type-check: %v", pkg.PkgPath, pkg.TypeErrors[0])
	}
	var diags []Diagnostic
	var dirs []*directive
	for _, f := range pkg.Files {
		dirs = append(dirs, parseDirectives(pkg.Fset, f, func(d Diagnostic) { diags = append(diags, d) })...)
	}
	for _, a := range analyzers {
		if !a.Matches(pkg.PkgPath) {
			continue
		}
		pass := &analysis.Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			TypesInfo: pkg.TypesInfo,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			diags = append(diags, Diagnostic{Analyzer: name, Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.PkgPath, err)
		}
	}
	for i := range diags {
		for _, dir := range dirs {
			if dir.matches(diags[i]) {
				diags[i].Suppressed = true
				dir.used = true
			}
		}
	}
	return diags, dirs, nil
}

// forEach calls f(0) … f(n-1) on up to GOMAXPROCS goroutines and waits
// for all of them.
func forEach(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Run loads the packages matching patterns, applies the analyzers, and
// writes file:line:col-prefixed diagnostics to out. It returns the number
// of diagnostics after suppression; the caller turns a nonzero count into
// a nonzero exit.
func Run(analyzers []*analysis.Analyzer, patterns []string, out io.Writer, opts Options) (int, error) {
	analyzers, err := selectAnalyzers(analyzers, opts.Only)
	if err != nil {
		return 0, err
	}
	diags, _, err := analyze(analyzers, patterns, opts, out)
	if err != nil {
		return 0, err
	}

	cwd, _ := filepath.Abs(".")
	unsuppressed := 0
	for i := range diags {
		d := &diags[i]
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		if !d.Suppressed {
			unsuppressed++
		}
	}

	enc := json.NewEncoder(out)
	for _, d := range diags {
		if opts.JSON {
			if err := enc.Encode(jsonDiagnostic{
				File:       d.Pos.Filename,
				Line:       d.Pos.Line,
				Col:        d.Pos.Column,
				Analyzer:   d.Analyzer,
				Message:    d.Message,
				Suppressed: d.Suppressed,
			}); err != nil {
				return unsuppressed, err
			}
		} else if !d.Suppressed {
			fmt.Fprintf(out, "%s:%d:%d: %s: %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	return unsuppressed, nil
}

// StaleIgnores runs the analysis and reports every //lint:ignore
// directive that no diagnostic matched: the finding it once waived no
// longer fires, so the directive is dead weight that would silently
// swallow a future, different finding on its line.
// Malformed directives are excluded — they are already findings in their
// own right. The analyzer set should be the full registry; a narrowed set
// would mark other analyzers' directives stale.
func StaleIgnores(analyzers []*analysis.Analyzer, patterns []string, out io.Writer) (int, error) {
	_, dirs, err := analyze(analyzers, patterns, Options{}, io.Discard)
	if err != nil {
		return 0, err
	}
	var stale []*directive
	for _, d := range dirs {
		if !d.used {
			stale = append(stale, d)
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i], stale[j]
		if a.file != b.file {
			return a.file < b.file
		}
		return a.line < b.line
	})
	cwd, _ := filepath.Abs(".")
	for _, d := range stale {
		file := d.file
		if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		fmt.Fprintf(out, "%s:%d:%d: stale //lint:ignore %s: no matching finding fires here\n", file, d.line, d.col, d.names)
	}
	return len(stale), nil
}

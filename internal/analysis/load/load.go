// Package load turns Go package patterns into parsed, type-checked
// syntax for the stitchvet analyzers.
//
// It deliberately avoids golang.org/x/tools/go/packages (the repo vendors
// nothing): instead it shells out to `go list -export -deps -json`, which
// both enumerates the packages matching the patterns and compiles export
// data for every dependency, then parses the target packages' sources
// itself and type-checks them with the standard library's gc-export-data
// importer. The result is full types.Info at a fraction of the machinery.
//
// Loading is split in two so the driver can schedule the work: List runs
// go list once, and Loader.Load parses and type-checks one listed
// package. Load is safe to call from several goroutines: the shared
// token.FileSet and the gc export-data reader are the only shared state,
// and both are guarded.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// Package is one parsed and type-checked package.
type Package struct {
	PkgPath   string
	Name      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info

	// TypeErrors collects soft type-checking errors. Analyzers still
	// run on partially checked packages; the driver surfaces these
	// separately so a broken build is not silently linted.
	TypeErrors []error
}

// Meta is one listed (but not yet loaded) first-party package.
type Meta struct {
	PkgPath string
	Dir     string
	// GoFiles are the package's compiled sources as absolute paths
	// (GoFiles + CgoFiles from go list, in list order).
	GoFiles []string
}

// listedPackage mirrors the subset of `go list -json` output we consume.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
	Error      *struct{ Err string }
}

func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := []string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,CgoFiles,DepOnly,Error"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from the export-data files produced by
// `go list -export`, via the standard gc importer. The gc importer keeps
// an internal package map that is not documented concurrency-safe, so
// Import is serialized; type-checking proper still overlaps across
// goroutines.
type exportImporter struct {
	mu      sync.Mutex
	base    types.Importer
	exports map[string]string
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	imp := &exportImporter{exports: exports}
	imp.base = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return imp
}

func (i *exportImporter) Import(path string) (*types.Package, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.base.Import(path)
}

// List enumerates the packages matching the go-list patterns without
// loading them. It returns the metas sorted by import path and a Loader
// that resolves their imports from the export data go list built.
func List(patterns ...string) (*Loader, []*Meta, error) {
	listed, err := goList("", patterns)
	if err != nil {
		return nil, nil, err
	}
	exports := make(map[string]string)
	var metas []*Meta
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Name == "" {
			continue
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		m := &Meta{PkgPath: p.ImportPath, Dir: p.Dir}
		for _, f := range append(append([]string(nil), p.GoFiles...), p.CgoFiles...) {
			if !filepath.IsAbs(f) {
				f = filepath.Join(p.Dir, f)
			}
			m.GoFiles = append(m.GoFiles, f)
		}
		metas = append(metas, m)
	}
	sort.Slice(metas, func(a, b int) bool { return metas[a].PkgPath < metas[b].PkgPath })
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: newExportImporter(fset, exports)}, metas, nil
}

// Loader parses and type-checks listed packages. All packages loaded
// through one Loader share a single FileSet and one export-data importer,
// so each dependency's export data is read once.
type Loader struct {
	fset *token.FileSet
	imp  *exportImporter
}

// Load parses and type-checks one listed package.
func (l *Loader) Load(m *Meta) (*Package, error) {
	var asts []*ast.File
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	return checkParsed(l.fset, l.imp, m.PkgPath, m.Dir, asts)
}

// Dir loads the single package rooted at dir (every non-test .go file in
// it), resolving its imports through freshly built export data. It exists
// for analyzertest fixtures, which live under testdata/ where go list
// does not reach; fixture imports must be resolvable from the enclosing
// module (in practice: standard library packages).
func Dir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".go" {
			continue
		}
		files = append(files, name)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(files)

	fset := token.NewFileSet()
	var asts []*ast.File
	importSet := make(map[string]bool)
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
		for _, spec := range f.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil && path != "unsafe" {
				importSet[path] = true
			}
		}
	}

	exports := make(map[string]string)
	if len(importSet) > 0 {
		var imports []string
		for p := range importSet {
			imports = append(imports, p)
		}
		sort.Strings(imports)
		listed, err := goList(dir, imports)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	imp := newExportImporter(fset, exports)
	return checkParsed(fset, imp, filepath.Base(dir), dir, asts)
}

func checkParsed(fset *token.FileSet, imp types.Importer, pkgPath, dir string, asts []*ast.File) (*Package, error) {
	pkg := &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    fset,
		Files:   asts,
		TypesInfo: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
	}
	conf := types.Config{
		Importer:    imp,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	if tpkg, err := conf.Check(pkgPath, fset, asts, pkg.TypesInfo); err != nil && tpkg == nil {
		return nil, fmt.Errorf("type-checking %s: %v", pkgPath, err)
	}
	if len(asts) > 0 {
		pkg.Name = asts[0].Name.Name
	}
	return pkg, nil
}

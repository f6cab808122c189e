package load

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixtures = "stitchroute/internal/analysis/load/testdata/"

func TestListAndLoad(t *testing.T) {
	loader, metas, err := List("./testdata/ok")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(metas) != 1 || metas[0].PkgPath != fixtures+"ok" {
		t.Fatalf("metas = %v, want just the ok fixture", metas)
	}
	ok := metas[0]
	if len(ok.GoFiles) != 1 || !filepath.IsAbs(ok.GoFiles[0]) || filepath.Base(ok.GoFiles[0]) != "ok.go" {
		t.Errorf("GoFiles = %v, want one absolute path to ok.go", ok.GoFiles)
	}

	pkg, err := loader.Load(ok)
	if err != nil {
		t.Fatalf("Load(ok): %v", err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Errorf("ok has type errors: %v", pkg.TypeErrors)
	}
	if pkg.Name != "ok" || pkg.Types.Path() != fixtures+"ok" || pkg.Dir != ok.Dir {
		t.Errorf("pkg = name %q path %q dir %q", pkg.Name, pkg.Types.Path(), pkg.Dir)
	}
	if pkg.Types.Scope().Lookup("Upper") == nil {
		t.Error("Upper is not in the package scope")
	}
	if len(pkg.TypesInfo.Uses) == 0 || pkg.Fset != loader.fset {
		t.Error("types.Info not filled or FileSet not shared")
	}
	if len(pkg.Files[0].Comments) == 0 {
		t.Error("comments were not parsed")
	}
}

// TestListTypeError: go list -export compiles the package, so a type
// error stops List with the compiler's message.
func TestListTypeError(t *testing.T) {
	_, _, err := List("./testdata/broken")
	if err == nil || !strings.Contains(err.Error(), "cannot use") {
		t.Fatalf("List(broken) = %v, want the compiler's type error", err)
	}
}

// syntaxErrorDir writes an unparsable package to a fresh directory (kept
// out of testdata so gofmt -l over the tree stays clean).
func syntaxErrorDir(t *testing.T) string {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "syntax.go"), []byte("package syntax\n\nfunc f( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestLoadSyntaxError(t *testing.T) {
	loader, metas, err := List("./testdata/ok")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	m := *metas[0]
	m.GoFiles = []string{filepath.Join(syntaxErrorDir(t), "syntax.go")}
	if _, err := loader.Load(&m); err == nil {
		t.Fatal("Load of an unparsable file succeeded")
	}
}

func TestListNoMatch(t *testing.T) {
	_, metas, err := List("./testdata/empty/...")
	if err != nil || len(metas) != 0 {
		t.Fatalf("List(empty) = %v, %v; want no packages and no error", metas, err)
	}
}

func TestDir(t *testing.T) {
	pkg, err := Dir("testdata/ok")
	if err != nil {
		t.Fatalf("Dir: %v", err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Errorf("type errors: %v", pkg.TypeErrors)
	}
	if pkg.PkgPath != "ok" || pkg.Name != "ok" {
		t.Errorf("PkgPath %q Name %q, want ok/ok", pkg.PkgPath, pkg.Name)
	}

	// A package that fails type-checking still loads: the errors are
	// soft so the caller can report them.
	broken, err := Dir("testdata/broken")
	if err != nil {
		t.Fatalf("Dir(broken): %v", err)
	}
	if len(broken.TypeErrors) == 0 || !strings.Contains(broken.TypeErrors[0].Error(), "cannot use") {
		t.Errorf("TypeErrors = %v, want the string-to-int assignment", broken.TypeErrors)
	}

	for _, dir := range []string{"testdata/empty", syntaxErrorDir(t), "testdata/nosuch"} {
		if _, err := Dir(dir); err == nil {
			t.Errorf("Dir(%s) succeeded", dir)
		}
	}
}

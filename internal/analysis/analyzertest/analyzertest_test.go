package analyzertest

import (
	"fmt"
	"go/ast"
	"reflect"
	"strings"
	"testing"

	"stitchroute/internal/analysis"
	"stitchroute/internal/analysis/load"
)

// callFlagged reports every call to a function named flagged.
var callFlagged = &analysis.Analyzer{
	Name: "callflagged",
	Doc:  "flag calls to flagged",
	Run: func(pass *analysis.Pass) (interface{}, error) {
		pass.Preorder(func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "flagged" {
					pass.Reportf(call.Pos(), "call to flagged")
				}
			}
			return true
		})
		return nil, nil
	},
}

func TestRun(t *testing.T) {
	Run(t, "testdata", callFlagged, "demo")
}

// recorder is a testing.TB that collects Errorf calls instead of failing.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Errorf(format string, args ...interface{}) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *recorder) Helper() {}

func TestSplitPatterns(t *testing.T) {
	got, err := splitPatterns("`a.b` \"c\\\\d\"  `e f`")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.b", `c\d`, "e f"}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
	for _, bad := range []string{"unquoted", "`open", `"bad \q escape"`} {
		if _, err := splitPatterns(bad); err == nil {
			t.Errorf("splitPatterns(%q) succeeded", bad)
		}
	}
}

func TestBadWants(t *testing.T) {
	pkg, err := load.Dir("testdata/src/badwant")
	if err != nil {
		t.Fatal(err)
	}
	r := &recorder{TB: t}
	wants := parseWants(pkg, r)
	if len(wants) != 1 || wants[0].re.String() != "never matched" {
		t.Fatalf("got %d wants, want only the well-formed one", len(wants))
	}
	if len(r.errs) != 2 ||
		!strings.Contains(r.errs[0], "bad want pattern") ||
		!strings.Contains(r.errs[1], "bad want comment") {
		t.Fatalf("errors = %q, want a bad pattern then a bad comment", r.errs)
	}

	// The surviving expectation is never matched, and a diagnostic on a
	// line with no expectation is unexpected.
	r.errs = nil
	checkWants(r, pkg.Fset, []analysis.Diagnostic{{Pos: pkg.Files[0].Package, Message: "stray"}}, wants)
	if len(r.errs) != 2 ||
		!strings.Contains(r.errs[0], "unexpected diagnostic: stray") ||
		!strings.Contains(r.errs[1], `no diagnostic matching "never matched"`) {
		t.Fatalf("errors = %q", r.errs)
	}
}

// Package analyzertest runs an analyzer over fixture packages and checks
// its diagnostics against expectations written in the fixtures
// themselves, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// An expectation is a comment of the form
//
//	// want `regexp`
//	// want "regexp1" "regexp2"
//
// on the line the diagnostic is expected at. Every diagnostic must match
// an expectation on its line and every expectation must be matched by
// exactly one diagnostic; anything else fails the test with positions.
package analyzertest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"stitchroute/internal/analysis"
	"stitchroute/internal/analysis/load"
)

// expectation is one `want` pattern at a file:line.
type expectation struct {
	pos     token.Position
	re      *regexp.Regexp
	matched bool
}

// parseWants extracts the `// want ...` expectations from a package's
// comments.
func parseWants(pkg *load.Package, t testing.TB) []*expectation {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := splitPatterns(strings.TrimPrefix(text, "want "))
				if err != nil {
					t.Errorf("%s: bad want comment: %v", pos, err)
					continue
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", pos, p, err)
						continue
					}
					wants = append(wants, &expectation{pos: pos, re: re})
				}
			}
		}
	}
	return wants
}

// splitPatterns parses a sequence of Go string literals ("..." or `...`).
func splitPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("expected quoted pattern, got %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated pattern in %q", s)
		}
		lit := s[:end+2]
		p, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("cannot unquote %q: %v", lit, err)
		}
		out = append(out, p)
		s = strings.TrimSpace(s[end+2:])
	}
	return out, nil
}

// Run loads each fixture package from testdataDir/src/<name>, applies the
// analyzer, and enforces the `want` expectations.
func Run(t *testing.T, testdataDir string, a *analysis.Analyzer, pkgNames ...string) {
	t.Helper()
	for _, name := range pkgNames {
		name := name
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(testdataDir, "src", name)
			pkg, err := load.Dir(dir)
			if err != nil {
				t.Fatalf("loading fixture %s: %v", dir, err)
			}
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("fixture %s does not type-check: %v", dir, pkg.TypeErrors[0])
			}
			wants := parseWants(pkg, t)

			var diags []analysis.Diagnostic
			pass := &analysis.Pass{
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				TypesInfo: pkg.TypesInfo,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			if _, err := a.Run(pass); err != nil {
				t.Fatalf("analyzer %s: %v", a.Name, err)
			}
			checkWants(t, pkg.Fset, diags, wants)
		})
	}
}

// checkWants enforces the one-to-one matching between diagnostics and
// expectations.
func checkWants(t testing.TB, fset *token.FileSet, diags []analysis.Diagnostic, wants []*expectation) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if w.matched || w.pos.Filename != pos.Filename || w.pos.Line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no diagnostic matching %q", w.pos, w.re)
		}
	}
}

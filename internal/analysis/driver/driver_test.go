package driver

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"stitchroute/internal/analysis"
	"stitchroute/internal/analysis/floateq"
)

// TestSuppression runs the real driver (go list + type-check + analyzer +
// directive filtering) over the ignoredemo fixture and checks which
// diagnostics survive //lint:ignore.
func TestSuppression(t *testing.T) {
	var out bytes.Buffer
	n, err := Run([]*analysis.Analyzer{floateq.Analyzer}, []string{"./testdata/ignoredemo"}, &out, Options{})
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	got := out.String()

	// Surviving: the bare comparison, the wrong-analyzer one, the one
	// under the malformed directive, and the malformed-directive
	// diagnostic itself.
	if n != 4 {
		t.Errorf("got %d diagnostics, want 4:\n%s", n, got)
	}
	for _, want := range []string{
		"a.go:6:9: floateq:",
		"a.go:25:9: floateq:",
		"a.go:29:2: stitchvet: malformed //lint:ignore directive",
		"a.go:30:9: floateq:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	for _, absent := range []string{"a.go:10", "a.go:15", "a.go:20"} {
		if strings.Contains(got, absent) {
			t.Errorf("output should not contain %q (suppressed):\n%s", absent, got)
		}
	}
}

// TestJSONOutput reruns the same fixture in -json mode: every diagnostic
// — suppressed ones included — comes out as one object per line with the
// documented fields, and the returned count still excludes suppressed
// findings.
func TestJSONOutput(t *testing.T) {
	var out bytes.Buffer
	n, err := Run([]*analysis.Analyzer{floateq.Analyzer}, []string{"./testdata/ignoredemo"}, &out, Options{JSON: true})
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if n != 4 {
		t.Errorf("got %d unsuppressed diagnostics, want 4:\n%s", n, out.String())
	}
	var suppressed, active int
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var d jsonDiagnostic
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %q", line)
		}
		if d.Suppressed {
			suppressed++
		} else {
			active++
		}
	}
	// The fixture has three honored directives (same-line, preceding-line,
	// wildcard — suppressed but kept in the JSON stream) and four
	// surviving findings.
	if active != 4 || suppressed != 3 {
		t.Errorf("got %d active + %d suppressed, want 4 + 3:\n%s", active, suppressed, out.String())
	}
}

func TestOnlyUnknownAnalyzer(t *testing.T) {
	var out bytes.Buffer
	_, err := Run([]*analysis.Analyzer{floateq.Analyzer}, []string{"./testdata/ignoredemo"}, &out, Options{Only: []string{"nosuch"}})
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("want unknown-analyzer error, got %v", err)
	}
}

func TestPackageMatch(t *testing.T) {
	a := &analysis.Analyzer{Packages: []string{"internal/global", "internal/track"}}
	cases := []struct {
		path string
		want bool
	}{
		{"stitchroute/internal/global", true},
		{"internal/global", true},
		{"stitchroute/internal/track", true},
		{"stitchroute/internal/globalx", false},
		{"stitchroute/internal/server", false},
	}
	for _, c := range cases {
		if got := a.Matches(c.path); got != c.want {
			t.Errorf("Matches(%q) = %v, want %v", c.path, got, c.want)
		}
	}
	open := &analysis.Analyzer{}
	if !open.Matches("anything/at/all") {
		t.Error("empty filter must match every package")
	}
}

// TestOnlyListsValidNames: the unknown-analyzer error must teach the
// valid vocabulary, not just reject.
func TestOnlyListsValidNames(t *testing.T) {
	var out bytes.Buffer
	_, err := Run([]*analysis.Analyzer{floateq.Analyzer}, []string{"./testdata/ignoredemo"}, &out, Options{Only: []string{"nosuch"}})
	if err == nil || !strings.Contains(err.Error(), "valid analyzers: floateq") {
		t.Fatalf("error must list the valid analyzer names, got %v", err)
	}
}

// TestAuditIgnores drives the -audit fixture: two directives missing
// their reason, one naming an unknown analyzer, and two healthy ones.
func TestAuditIgnores(t *testing.T) {
	var out bytes.Buffer
	n, err := AuditIgnores("testdata/auditdemo", map[string]bool{"floateq": true}, &out)
	if err != nil {
		t.Fatalf("AuditIgnores: %v", err)
	}
	if n != 3 {
		t.Errorf("got %d findings, want 3:\n%s", n, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"bad.go:5:1: //lint:ignore directive is missing its mandatory reason",
		"bad.go:11:1: //lint:ignore names unknown analyzer \"nosuchanalyzer\"",
		"bad.go:14:1: //lint:ignore directive is missing its mandatory reason",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	for _, absent := range []string{"bad.go:8", "bad.go:17"} {
		if strings.Contains(got, absent) {
			t.Errorf("healthy directive flagged: %q in\n%s", absent, got)
		}
	}
}

// TestStaleIgnores drives the staledemo fixture: the directive whose
// finding still fires stays silent; the one waiving a finding that no
// longer exists is reported with its file, line, and analyzer spec.
func TestStaleIgnores(t *testing.T) {
	var out bytes.Buffer
	n, err := StaleIgnores([]*analysis.Analyzer{floateq.Analyzer}, []string{"./testdata/staledemo"}, &out)
	if err != nil {
		t.Fatalf("StaleIgnores: %v", err)
	}
	if n != 1 {
		t.Errorf("got %d stale directives, want 1:\n%s", n, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "stale.go:12:2: stale //lint:ignore floateq: no matching finding fires here") {
		t.Errorf("missing stale report:\n%s", got)
	}
	if strings.Contains(got, "stale.go:7") {
		t.Errorf("healthy directive flagged as stale:\n%s", got)
	}
}

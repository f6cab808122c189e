// Command stitchvet is the repo's domain-specific linter: a multichecker
// that enforces the router's determinism, float-comparison and hot-path
// allocation invariants at compile time instead of rediscovering them in
// soak runs.
//
// Usage:
//
//	stitchvet [-only name,name] [-json] [-audit] [-v] [packages...]
//
// Packages default to ./.... Exit status is 1 if any unsuppressed
// diagnostic is reported, 2 on driver errors. With -json, diagnostics
// are emitted one JSON object per line (including suppressed ones,
// marked as such); the schema is documented in docs/LINTING.md, along
// with what each analyzer guards and how to suppress a false positive
// with //lint:ignore. Packages are analyzed in parallel, up to
// GOMAXPROCS at a time.
//
// -audit walks the tree and fails on any //lint:ignore directive that
// has no reason text or names an unknown analyzer, then runs a fresh
// analysis and fails on any directive that no finding matched: a stale
// suppression is a future bug report with the evidence deleted.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"stitchroute/internal/analysis/driver"
	"stitchroute/internal/analysis/registry"
)

var analyzers = registry.All()

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON object per diagnostic line (see docs/LINTING.md)")
	audit := flag.Bool("audit", false, "audit //lint:ignore directives (missing reasons, unknown analyzers, stale suppressions), then exit")
	verbose := flag.Bool("v", false, "print each package as it is checked")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: stitchvet [-only name,name] [-json] [-audit] [-v] [packages...]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, firstLine(a.Doc))
		}
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *audit {
		valid := map[string]bool{}
		for _, a := range analyzers {
			valid[a.Name] = true
		}
		n, err := driver.AuditIgnores(".", valid, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stitchvet:", err)
			os.Exit(2)
		}
		stale, err := driver.StaleIgnores(analyzers, patterns, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stitchvet:", err)
			os.Exit(2)
		}
		if n+stale > 0 {
			fmt.Fprintf(os.Stderr, "stitchvet: %d unjustified and %d stale suppression(s)\n", n, stale)
			os.Exit(1)
		}
		return
	}

	opts := driver.Options{Verbose: *verbose, JSON: *jsonOut}
	if *only != "" {
		opts.Only = strings.Split(*only, ",")
	}
	n, err := driver.Run(analyzers, patterns, os.Stdout, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stitchvet:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "stitchvet: %d diagnostic(s)\n", n)
		os.Exit(1)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

package registry_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"stitchroute/internal/analysis/driver"
	"stitchroute/internal/analysis/registry"
)

// historicalCatches lists the real bugs re-created under
// testdata/catches/<commit>. Each fixture package path ends in the real
// package's suffix (…/internal/track and so on), so every analyzer's
// Packages scope applies exactly as in `stitchvet ./...`.
var historicalCatches = []struct{ commit, bug string }{
	{"c18208f", "global A* heap seeded from map order"},
	{"f69f887", "track.trackBounds adjacency in map order; raster.DefectScore float equality"},
	{"b0e72bb", "RouteNet pin tiles and patternRoute's source tile in map order; commitPath appends"},
	{"b0876e9", "float equality in the stencil candidate sort"},
	{"1b0a283", "per-search path slice in the global A*"},
	{"569352a", "checkNet appending to rep.SPSites instead of checkScratch"},
}

// catchMarker marks a fixture line that the named analyzer must flag.
var catchMarker = regexp.MustCompile(`// catch: (\w+)`)

type lineKey struct {
	file string
	line int
}

// TestHistoricalCatches runs the full registry through the driver over
// the re-created bugs. Every `// catch: <analyzer>` line must carry a
// finding from that analyzer, and no unmarked line may carry any: each
// fixture also holds the committed fix, which must stay clean.
func TestHistoricalCatches(t *testing.T) {
	var out bytes.Buffer
	if _, err := driver.Run(registry.All(), []string{"./testdata/catches/..."}, &out, driver.Options{JSON: true}); err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	found := map[lineKey]map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if line == "" {
			continue
		}
		var d struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
		}
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
		k := lineKey{filepath.ToSlash(d.File), d.Line}
		if found[k] == nil {
			found[k] = map[string]bool{}
		}
		found[k][d.Analyzer] = true
	}

	want := map[lineKey]string{}
	perCommit := map[string]int{}
	err := filepath.WalkDir("testdata/catches", func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || filepath.Ext(path) != ".go" {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for n := 1; sc.Scan(); n++ {
			if m := catchMarker.FindStringSubmatch(sc.Text()); m != nil {
				want[lineKey{filepath.ToSlash(path), n}] = m[1]
				perCommit[strings.Split(filepath.ToSlash(path), "/")[2]]++
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}

	for k, analyzer := range want {
		if !found[k][analyzer] {
			t.Errorf("%s:%d: %s no longer flags this re-created bug", k.file, k.line, analyzer)
		}
	}
	for k, analyzers := range found {
		if _, ok := want[k]; !ok {
			for a := range analyzers {
				t.Errorf("%s:%d: unexpected %s finding on an unmarked line", k.file, k.line, a)
			}
		}
	}
	for _, c := range historicalCatches {
		if perCommit[c.commit] == 0 {
			t.Errorf("%s (%s): no catch markers under testdata/catches/%s", c.commit, c.bug, c.commit)
		}
	}
	if len(perCommit) != len(historicalCatches) {
		t.Errorf("testdata/catches has %d commit directories with markers, the table lists %d", len(perCommit), len(historicalCatches))
	}
}

package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"stitchroute/internal/core"
	"stitchroute/internal/netlist"
)

// Metrics is the per-benchmark quality snapshot committed to the golden
// files: the circuit, the run's quality record and the routes hash that
// pins the geometry itself.
type Metrics struct {
	Circuit string `json:"circuit"`
	Mode    string `json:"mode"`
	Nets    int    `json:"nets"`
	Pins    int    `json:"pins"`
	core.Quality
	RoutesHash string `json:"routesHash"`
}

// Collect builds the golden metrics of a routing result whose routes
// hash to routesHash.
func Collect(c *netlist.Circuit, mode string, res *core.Result, routesHash string) Metrics {
	return Metrics{
		Circuit:    c.Name,
		Mode:       mode,
		Nets:       len(c.Nets),
		Pins:       c.NumPins(),
		Quality:    res.Quality(),
		RoutesHash: routesHash,
	}
}

// Compare returns every field on which got differs from the golden
// snapshot want, named by its JSON key; empty when they match. The
// router, ECO engines and write-prep are deterministic, so every field
// compares exactly: any drift is a behavior change and needs a
// deliberate re-pin (make repin).
func Compare[T any](got, want T) []string {
	return diff(reflect.ValueOf(got), reflect.ValueOf(want), "", "%s %v, want %v")
}

// diff formats, with format, each field on which the structs g and w
// differ: its JSON key after prefix, then its values in g and in w. It
// recurses into struct fields: an embedded struct's fields keep their
// own keys (as encoding/json inlines them), a named one's are prefixed
// with its key and a dot.
func diff(g, w reflect.Value, prefix, format string) []string {
	var out []string
	for i := range g.NumField() {
		f := g.Type().Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Type.Kind() == reflect.Struct {
			p := prefix
			if !f.Anonymous {
				p += key + "."
			}
			out = append(out, diff(g.Field(i), w.Field(i), p, format)...)
			continue
		}
		if gf, wf := g.Field(i).Interface(), w.Field(i).Interface(); gf != wf {
			out = append(out, fmt.Sprintf(format, prefix+key, gf, wf))
		}
	}
	return out
}

// UpdateGolden rewrites the golden file at path from got: the refresh
// path every pinned snapshot shares (make repin). It prints to w one
// line per field that changed, "file name: key before → after", where
// name(entry) names the entry, ready to paste into a change log; a file
// with no change prints as unchanged. Entries are compared in order; an
// entry with no old counterpart of the same name (or a missing file)
// compares against the zero value.
func UpdateGolden[T any](w io.Writer, path string, got []T, name func(T) string) error {
	old, _ := ReadGolden[T](path)
	file, changed := filepath.Base(path), false
	for i, m := range got {
		var before T
		if i < len(old) && name(old[i]) == name(m) {
			before = old[i]
		}
		for _, d := range diff(reflect.ValueOf(before), reflect.ValueOf(m), "", "%s %v → %v") {
			fmt.Fprintf(w, "%s %s: %s\n", file, name(m), d)
			changed = true
		}
	}
	if !changed {
		fmt.Fprintf(w, "%s: unchanged\n", file)
	}
	return WriteGolden(path, got)
}

// WriteGolden writes golden snapshots as a deterministic, diff-friendly
// JSON file (stable field order, two-space indent, trailing newline) so
// -update on an unchanged tree regenerates files byte-identically.
func WriteGolden[T any](path string, ms []T) error {
	data, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadGolden loads a golden snapshot file.
func ReadGolden[T any](path string) ([]T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms []T
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ms, nil
}

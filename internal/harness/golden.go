package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"

	"stitchroute/internal/netlist"
)

// Metrics is the per-benchmark quality snapshot committed to the golden
// files: every number a routing-quality regression would move, and the
// routes hash that pins the geometry itself.
type Metrics struct {
	Circuit             string  `json:"circuit"`
	Mode                string  `json:"mode"`
	Nets                int     `json:"nets"`
	Pins                int     `json:"pins"`
	Routability         float64 `json:"routability"`
	ViaViolations       int     `json:"viaViolations"`
	ViaViolationsOffPin int     `json:"viaViolationsOffPin"`
	VertRouteViolations int     `json:"vertRouteViolations"`
	ShortPolygons       int     `json:"shortPolygons"`
	Wirelength          int64   `json:"wirelength"`
	Vias                int     `json:"vias"`
	FailedNets          int     `json:"failedNets"`
	RoutesHash          string  `json:"routesHash"`
}

// Collect extracts the golden metrics from an audited routing result.
func Collect(c *netlist.Circuit, mode string, cr CheckResult) Metrics {
	rep := cr.Report
	return Metrics{
		Circuit:             c.Name,
		Mode:                mode,
		Nets:                len(c.Nets),
		Pins:                c.NumPins(),
		Routability:         math.Round(rep.Routability()*100) / 100,
		ViaViolations:       rep.ViaViolations,
		ViaViolationsOffPin: rep.ViaViolationsOffPin,
		VertRouteViolations: rep.VertRouteViolations,
		ShortPolygons:       rep.ShortPolygons,
		Wirelength:          rep.Wirelength,
		Vias:                rep.Vias,
		FailedNets:          cr.FailedNets,
		RoutesHash:          cr.RoutesHash,
	}
}

// Compare returns every field on which got differs from the golden
// snapshot want, named by its JSON key; empty when they match. The
// router, ECO engines and write-prep are deterministic, so every field
// compares exactly: any drift is a behavior change and needs a
// deliberate -update.
func Compare[T any](got, want T) []string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	var bad []string
	for i := range g.NumField() {
		gf, wf := g.Field(i).Interface(), w.Field(i).Interface()
		if gf != wf {
			key, _, _ := strings.Cut(g.Type().Field(i).Tag.Get("json"), ",")
			bad = append(bad, fmt.Sprintf("%s %v, want %v", key, gf, wf))
		}
	}
	return bad
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

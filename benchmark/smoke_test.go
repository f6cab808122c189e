package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// summary is the JSON line a run ends with.
type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// reportOf prints o as the command does and parses its last line.
func reportOf(t *testing.T, name string, o *outcome, traced bool) (summary, int) {
	t.Helper()
	var out bytes.Buffer
	code := report(&out, io.Discard, name, o, traced)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("%s: last line is not the summary: %v", name, err)
	}
	return s, code
}

func sameMetrics(t *testing.T, what string, got summary, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("%s: %s missing or not in %s: %+v", what, name, unit, m)
		}
	}
	for name := range got.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: undeclared metric %s", what, name)
		}
	}
}

// TestSmoke runs every workload traced on Primary1-sized inputs: one
// untraced and one traced pass each.
func TestSmoke(t *testing.T) {
	e2e, layer := declared(t)
	if len(e2e) != len(endToEnd) || len(layer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the program %d+%d", len(e2e), len(layer), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		o, err := run(context.Background(), w, smokeSizes, 1, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		traced, code := reportOf(t, w.name, o, true)
		if code != 0 || !traced.Correct || traced.Failed != 0 || traced.Attempted < 2 {
			t.Errorf("%s: exit %d, summary %+v", w.name, code, traced)
		}
		sameMetrics(t, w.name+" traced", traced, layer)
		untraced, _ := reportOf(t, w.name, o, false)
		sameMetrics(t, w.name+" untraced", untraced, e2e)
		for name, m := range untraced.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}

		if w.name == "chip-cold" {
			// Pass 0 routes through core.RouteContext, pass 1 through the
			// staged calls; the determinism check failed any op whose
			// hashes differ, so check that both passes ran each chip.
			plain, staged := o.ops(false), o.ops(true)
			if len(plain) == 0 || len(staged) == 0 || plain[0].key != staged[0].key || plain[0].hash != staged[0].hash {
				t.Errorf("staged routes do not match core.Route: %+v vs %+v", plain, staged)
			}
		}
	}
}

package harness

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/track"
)

func circuitHash(t testing.TB, c *netlist.Circuit) string {
	t.Helper()
	h, err := nlio.CircuitHash(c)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

var update = flag.Bool("update", false, "rewrite the golden metrics files from the current tree")

// goldenBenchmarks are the bundled benchmarks small enough for the
// regression gate to route on every test run (each takes well under a
// second per mode).
var goldenBenchmarks = []string{"Primary1", "S5378", "S9234"}

func goldenPath(circuit string) string {
	return filepath.Join("testdata", "golden", circuit+".json")
}

func benchCircuit(t testing.TB, name string) func() *netlist.Circuit {
	t.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return func() *netlist.Circuit { return bench.Generate(spec) }
}

// goldenMetrics routes the named benchmark under every golden mode:
// the stitch-aware router, the baseline, and the stitch-aware router
// with exact (ILP) track assignment, Table VII's middle arm. It checks
// the hard invariants and returns the golden metrics.
func goldenMetrics(t *testing.T, name string) []Metrics {
	fresh := benchCircuit(t, name)
	var got []Metrics
	for _, mode := range []string{"stitch", "baseline", "ilp"} {
		cfg := core.StitchAware()
		switch mode {
		case "baseline":
			cfg = core.Baseline()
		case "ilp":
			cfg.TrackAlgo = track.ILPBased
		}
		c := fresh()
		res, cr, err := RouteAndCheck(c, cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, mode, err)
		}
		if v := cr.HardViolations(); len(v) != 0 {
			t.Errorf("%s/%s: hard invariant violations: %v", name, mode, v)
		}
		got = append(got, Collect(c, mode, res, cr.RoutesHash))
	}
	return got
}

// TestGoldenBenchmarks is the golden-metrics regression gate: each
// benchmark is routed under every golden mode and the quality record and
// routes hash must match the committed snapshot exactly. Refresh every
// pinned snapshot with make repin.
func TestGoldenBenchmarks(t *testing.T) {
	for _, name := range goldenBenchmarks {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := goldenMetrics(t, name)
			if *update {
				if err := UpdateGolden(os.Stdout, goldenPath(name), got, func(m Metrics) string {
					return m.Circuit + "/" + m.Mode
				}); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := ReadGolden[Metrics](goldenPath(name))
			if err != nil {
				t.Fatalf("missing golden file (run make repin to create): %v", err)
			}
			if len(want) != len(got) {
				t.Fatalf("golden %s has %d entries, want %d", goldenPath(name), len(want), len(got))
			}
			for i := range got {
				for _, bad := range Compare(got[i], want[i]) {
					t.Errorf("%s/%s: %s", name, got[i].Mode, bad)
				}
			}
		})
	}
}

// TestGoldenUpdateIsIdempotent guards the acceptance contract that
// -update regenerates byte-identical files on an unchanged tree: writing
// the freshly collected metrics to a scratch file must reproduce the
// committed bytes exactly.
func TestGoldenUpdateIsIdempotent(t *testing.T) {
	name := goldenBenchmarks[0]
	want, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Skipf("golden file not committed yet: %v", err)
	}
	scratch := filepath.Join(t.TempDir(), "golden.json")
	if err := WriteGolden(scratch, goldenMetrics(t, name)); err != nil {
		t.Fatal(err)
	}
	have, err := os.ReadFile(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if string(have) != string(want) {
		t.Errorf("regenerated golden for %s differs from committed file; routing or serialization is nondeterministic", name)
	}
}

// TestCompareNamesRecordFields: Compare descends into the embedded
// quality record and the ECO golden's nested patch record, naming each
// mismatch by its JSON key (a nested record's prefixed with its own).
func TestCompareNamesRecordFields(t *testing.T) {
	a, b := Metrics{Circuit: "c"}, Metrics{Circuit: "c"}
	b.ShortPolygons, b.TVOF = 2, 3
	if got, want := Compare(a, b), []string{"shortPolygons 0, want 2", "tvof 0, want 3"}; !slices.Equal(got, want) {
		t.Errorf("Compare(Metrics) = %q, want %q", got, want)
	}
	e, f := ECOMetrics{}, ECOMetrics{}
	f.Patch.Wirelength = 7
	if got, want := Compare(e, f), []string{"patch.wirelength 0, want 7"}; !slices.Equal(got, want) {
		t.Errorf("Compare(ECOMetrics) = %q, want %q", got, want)
	}
}

// TestRandomGridBattery runs the full battery — hard invariants under
// both configs, stitch-vs-baseline dominance, determinism, and the
// translate/mirror metamorphic properties — over the seeded random
// parameter grid. Short mode covers ShortGrid with one seed; full mode
// covers FullGrid with three seeds each.
func TestRandomGridBattery(t *testing.T) {
	specs := FullGrid()
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		specs = ShortGrid()
		seeds = []int64{1}
	}
	for _, base := range specs {
		for _, seed := range seeds {
			spec := base
			spec.Seed = seed
			t.Run(spec.String(), func(t *testing.T) {
				t.Parallel()
				o, err := Verify(spec.String(), func() *netlist.Circuit { return Generate(spec) })
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range o.Violations {
					t.Error(v)
				}
			})
		}
	}
}

// TestGeneratorDeterminism pins the harness generator's contract: the
// same spec yields an identical circuit (checked via the canonical
// circuit hash), and changing the seed yields a different one.
func TestGeneratorDeterminism(t *testing.T) {
	spec := ShortGrid()[0]
	spec.Seed = 42
	h1 := circuitHash(t, Generate(spec))
	h2 := circuitHash(t, Generate(spec))
	if h1 != h2 {
		t.Errorf("same spec produced different circuits: %s vs %s", h1, h2)
	}
	spec.Seed = 43
	if h3 := circuitHash(t, Generate(spec)); h3 == h1 {
		t.Error("different seeds produced identical circuits")
	}
	if err := Generate(spec).Validate(); err != nil {
		t.Errorf("generated circuit invalid: %v", err)
	}
}

// TestBenchmarkDeterminismByteIdentical asserts full routed-geometry
// determinism on a real benchmark — the property the server's
// content-addressed result cache depends on.
func TestBenchmarkDeterminismByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the random battery in -short mode")
	}
	fresh := benchCircuit(t, "S9234")
	_, cr1, err := RouteAndCheck(fresh(), core.StitchAware())
	if err != nil {
		t.Fatal(err)
	}
	_, cr2, err := RouteAndCheck(fresh(), core.StitchAware())
	if err != nil {
		t.Fatal(err)
	}
	if cr1.RoutesHash != cr2.RoutesHash {
		t.Errorf("benchmark reroute not byte-identical: %s vs %s", cr1.RoutesHash[:12], cr2.RoutesHash[:12])
	}
}

package detail_test

// Whole-run tests of the detailed router on generated circuits: the
// cancellation contract, arena reuse and the detail-stage benchmark.

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/detail"
	"stitchroute/internal/harness"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/plan"
)

// TestParallelCancellation checks the cancellation contract: a
// pre-cancelled context routes nothing, and every net is recorded
// unrouted rather than dropped.
func TestParallelCancellation(t *testing.T) {
	spec := harness.ShortGrid()[0]
	spec.Seed = 3
	c := harness.Generate(spec)
	r := detail.NewRouter(c.Fabric, detail.DefaultConfig(true))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := r.RunContext(ctx, c, nil)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if len(res.Routes) != len(c.Nets) {
		t.Fatalf("cancelled run recorded %d routes for %d nets", len(res.Routes), len(c.Nets))
	}
	for i := range res.Routes {
		if res.Routes[i].Routed {
			t.Fatalf("net %d marked routed under a pre-cancelled context", i)
		}
	}
}

// s9234RoutesHash is the nlio.RoutesHash of S9234 under the stitch-aware
// config, as pinned by the harness golden S9234.json and BENCH_pipeline.json.
const s9234RoutesHash = "66a94f44e00e2be9be88dd058f941946c65a35d3d4441af9631b8de7dc5c5b76"

// BenchmarkDetail measures the detailed-routing stage of S9234 on its
// own, reporting A* expansions per second, and fails if the routes stop
// hashing to the pinned value. CI runs it with -benchtime=1x as a smoke
// test.
func BenchmarkDetail(b *testing.B) {
	spec, err := bench.ByName("S9234")
	if err != nil {
		b.Fatal(err)
	}
	c := bench.Generate(spec)
	cfg := core.StitchAware()
	// A full route leaves the track-assigned plans the detail stage
	// starts from.
	pre, err := core.Route(c, cfg)
	if err != nil {
		b.Fatal(err)
	}
	plans := pre.Plans

	var expansions int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := detail.NewRouter(c.Fabric, cfg.Detail).Run(c, plans)
		expansions += res.Expansions
		h, err := nlio.RoutesHash(res.Routes)
		if err != nil {
			b.Fatal(err)
		}
		if h != s9234RoutesHash {
			b.Fatalf("routes hash %s, want %s", h[:12], s9234RoutesHash[:12])
		}
	}
	b.ReportMetric(float64(expansions)/b.Elapsed().Seconds(), "expansions/s")
}

// TestArenaReuse routes S9234's detail stage on a fresh arena and on one
// that has already routed Primary1 and a patch of S13207: arenas are
// pooled across runs and circuits, so what an arena ran before must not
// show in the routes.
func TestArenaReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("routes S9234, Primary1 and S13207")
	}
	cfg := core.StitchAware()
	routed := func(name string) (*netlist.Circuit, *core.Result) {
		spec, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := bench.Generate(spec)
		res, err := core.Route(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c, res
	}
	s9234, pre := routed("S9234")
	hash := func(a *detail.Arena) string {
		res := detail.NewRouter(s9234.Fabric, cfg.Detail).Use(a).Run(s9234, pre.Plans)
		h, err := nlio.RoutesHash(res.Routes)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := hash(new(detail.Arena)); h != s9234RoutesHash {
		t.Fatalf("fresh arena: routes hash %.12s, want %.12s", h, s9234RoutesHash)
	}

	used := new(detail.Arena)
	p1, p1Res := routed("Primary1")
	detail.NewRouter(p1.Fabric, cfg.Detail).Use(used).Run(p1, p1Res.Plans)
	s13207, parent := routed("S13207")
	p := &detail.Patch{
		Dirty:     make([]bool, len(s13207.Nets)),
		Keep:      parent.Routes,
		FreedPins: parent.ECO.FreedPins,
	}
	for i := 0; i < len(p.Dirty); i += 50 {
		p.Dirty[i] = true
	}
	if _, _, err := detail.NewRouter(s13207.Fabric, cfg.Detail).Use(used).RunPatch(context.Background(), s13207, parent.Plans, p); err != nil {
		t.Fatal(err)
	}
	if h := hash(used); h != s9234RoutesHash {
		t.Fatalf("arena used by Primary1 and an S13207 patch: routes hash %.12s, want %.12s", h, s9234RoutesHash)
	}
}

// TestRunPatchReadOnly runs one Patch twice on fresh routers: the
// results must be identical and the Patch must be left as it was,
// including a slot beyond Keep, which is routed live without being
// marked dirty in the caller's Patch.
func TestRunPatchReadOnly(t *testing.T) {
	spec := harness.ShortGrid()[0]
	spec.Seed = 5
	c := harness.Generate(spec)
	cfg := detail.DefaultConfig(true)
	parent := detail.NewRouter(c.Fabric, cfg).Run(c, nil)

	n := len(c.Nets)
	p := &detail.Patch{
		Dirty:     make([]bool, n),
		Keep:      append([]plan.NetRoute(nil), parent.Routes[:n-1]...),
		FreedPins: append([][]detail.Cell(nil), parent.FreedPins[:n-1]...),
	}
	for i := 0; i < n; i += 5 {
		p.Dirty[i] = true
	}
	before := clonePatch(p)

	var results [2]*detail.Result
	for k := range results {
		res, grafted, err := detail.NewRouter(c.Fabric, cfg).RunPatch(context.Background(), c, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := n - (n+4)/5 - 1; grafted != want {
			t.Fatalf("grafted %d nets, want %d", grafted, want)
		}
		results[k] = res
		if !reflect.DeepEqual(p, before) {
			t.Fatalf("run %d changed its Patch", k)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("two runs of one Patch differ")
	}
}

func clonePatch(p *detail.Patch) *detail.Patch {
	q := &detail.Patch{
		Dirty:     slices.Clone(p.Dirty),
		Keep:      slices.Clone(p.Keep),
		FreedPins: slices.Clone(p.FreedPins),
	}
	for i := range q.Keep {
		q.Keep[i].Wires = slices.Clone(q.Keep[i].Wires)
		q.Keep[i].Vias = slices.Clone(q.Keep[i].Vias)
	}
	for i := range q.FreedPins {
		q.FreedPins[i] = slices.Clone(q.FreedPins[i])
	}
	return q
}

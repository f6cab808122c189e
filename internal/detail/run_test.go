package detail_test

// Whole-run tests of the detailed router on generated circuits: the
// cancellation contract and the detail-stage benchmark.

import (
	"context"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/detail"
	"stitchroute/internal/harness"
	"stitchroute/internal/nlio"
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
// config, as pinned by the harness goldens and BENCH_detail.json.
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

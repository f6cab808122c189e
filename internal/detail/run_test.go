package detail_test

// Whole-run tests of the detailed router on generated circuits: the
// cancellation contract of every routing loop, arena reuse and the
// detail-stage benchmark.

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/detail"
	"stitchroute/internal/geom"
	"stitchroute/internal/global"
	"stitchroute/internal/harness"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/plan"
)

// TestCancellation checks the cancellation contract of every routing
// loop, the global pass's and the detailed router's: under a
// pre-cancelled context each returns the context's error, and a detail
// run records every net slot unrouted, rather than dropping it, and
// counts it failed.
func TestCancellation(t *testing.T) {
	spec := harness.ShortGrid()[0]
	spec.Seed = 3
	c := harness.Generate(spec)
	cfg := core.StitchAware()
	parent, err := core.Route(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	memo := &detail.Memo{Slot: map[int]int{}, Routes: parent.Routes, Recording: parent.ECO.Recording}
	for i, n := range c.Nets {
		memo.Slot[n.ID] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dr := func() *detail.Router { return detail.NewRouter(c.Fabric, cfg.Detail) }
	gr := func() *global.Router { return global.NewRouter(c.Fabric, cfg.Global) }
	for _, tc := range []struct {
		name string
		run  func() (*detail.Result, error)
	}{
		{"RunContext", func() (*detail.Result, error) { return dr().RunContext(ctx, c, parent.Plans) }},
		{"RunMemo", func() (*detail.Result, error) {
			res, _, err := dr().RunMemo(ctx, c, parent.Plans, memo)
			return res, err
		}},
		{"RunPatch", func() (*detail.Result, error) {
			res, _, err := dr().RunPatch(ctx, c, parent.Plans, &detail.Patch{})
			return res, err
		}},
		{"RouteAllContext", func() (*detail.Result, error) {
			_, err := gr().RouteAllContext(ctx, c)
			return nil, err
		}},
		{"RouteAllMemo", func() (*detail.Result, error) {
			_, _, err := gr().RouteAllMemo(ctx, c, parent.ECO.Global, nil)
			return nil, err
		}},
	} {
		res, err := tc.run()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v, want context.Canceled", tc.name, err)
		}
		if res == nil {
			continue
		}
		if len(res.Routes) != len(c.Nets) || res.Failed != len(c.Nets) {
			t.Errorf("%s: %d routes and %d failed for %d nets", tc.name, len(res.Routes), res.Failed, len(c.Nets))
		}
		for i := range res.Routes {
			if res.Routes[i].Routed {
				t.Errorf("%s: net %d marked routed under a pre-cancelled context", tc.name, i)
			}
		}
	}
}

// s9234RoutesHash returns the nlio.RoutesHash of S9234 under the
// stitch-aware config, as pinned by the harness golden S9234.json.
func s9234RoutesHash(tb testing.TB) string {
	tb.Helper()
	ms, err := harness.ReadGolden[harness.Metrics](filepath.Join("..", "harness", "testdata", "golden", "S9234.json"))
	if err != nil {
		tb.Fatal(err)
	}
	i := slices.IndexFunc(ms, func(m harness.Metrics) bool { return m.Mode == "stitch" })
	if i < 0 {
		tb.Fatal("S9234 golden has no stitch entry")
	}
	return ms[i].RoutesHash
}

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
	want := s9234RoutesHash(b)

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
		if h != want {
			b.Fatalf("routes hash %.12s, want %.12s", h, want)
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
	want := s9234RoutesHash(t)
	hash := func(a *detail.Arena) string {
		res := detail.NewRouter(s9234.Fabric, cfg.Detail).Use(a).Run(s9234, pre.Plans)
		h, err := nlio.RoutesHash(res.Routes)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := hash(new(detail.Arena)); h != want {
		t.Fatalf("fresh arena: routes hash %.12s, want %.12s", h, want)
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
	if h := hash(used); h != want {
		t.Fatalf("arena used by Primary1 and an S13207 patch: routes hash %.12s, want %.12s", h, want)
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

// TestRunMemoMatchesCold replays harness circuits against their own
// cold recording after one-pin edits: each memoized run must equal a
// cold run of the edited circuit in routes, rip-up state and recorded
// footprints, and the runs together must replay nets without a search.
func TestRunMemoMatchesCold(t *testing.T) {
	cfg := detail.DefaultConfig(true)
	replayed, nets := 0, 0
	for _, seed := range []int64{1, 2, 3} {
		for gi, spec := range harness.ShortGrid() {
			spec.Seed = seed
			c := harness.Generate(spec)
			parent := detail.NewRouter(c.Fabric, cfg).Run(c, nil)
			k := (gi + int(seed)) * len(c.Nets) / 7
			edited := movePin(c, k)
			m := &detail.Memo{
				Dirty:     map[int]bool{c.Nets[k].ID: true},
				Slot:      map[int]int{},
				Routes:    parent.Routes,
				Recording: parent.Recording,
			}
			for i, n := range c.Nets {
				m.Slot[n.ID] = i
			}
			got, n, err := detail.NewRouter(c.Fabric, cfg).RunMemo(context.Background(), edited, nil, m)
			if err != nil {
				t.Fatal(err)
			}
			replayed, nets = replayed+n, nets+len(c.Nets)
			want := detail.NewRouter(c.Fabric, cfg).Run(edited, nil)
			gh, err := nlio.RoutesHash(got.Routes)
			if err != nil {
				t.Fatal(err)
			}
			wh, err := nlio.RoutesHash(want.Routes)
			if err != nil {
				t.Fatal(err)
			}
			if gh != wh {
				t.Fatalf("grid %d seed %d: memoized routes hash %.12s, cold %.12s", gi, seed, gh, wh)
			}
			if got.Failed != want.Failed || got.Ripped != want.Ripped ||
				!reflect.DeepEqual(got.NetRipped, want.NetRipped) || !reflect.DeepEqual(got.FreedPins, want.FreedPins) {
				t.Errorf("grid %d seed %d: memoized rip-up state differs from the cold run's", gi, seed)
			}
			if footprintsHash(got.Acts) != footprintsHash(want.Acts) || footprintsHash(got.WActs) != footprintsHash(want.WActs) {
				t.Errorf("grid %d seed %d: memoized footprints differ from the cold run's", gi, seed)
			}
		}
	}
	if replayed == 0 {
		t.Error("no net replayed")
	}
	t.Logf("%d of %d nets replayed", replayed, nets)
}

// movePin returns c with pin 0 of net k moved right to the nearest cell
// no pin uses two or more columns away, wrapping at the fabric edge.
func movePin(c *netlist.Circuit, k int) *netlist.Circuit {
	used := map[geom.Point]bool{}
	for _, n := range c.Nets {
		for _, p := range n.Pins {
			used[p.Point] = true
		}
	}
	moved := *c.Nets[k]
	moved.Pins = slices.Clone(moved.Pins)
	p := &moved.Pins[0]
	for x := p.X + 2; ; x++ {
		if x >= c.Fabric.XTracks {
			x = 0
		}
		if q := (geom.Point{X: x, Y: p.Y}); !used[q] {
			p.Point = q
			break
		}
	}
	edited := &netlist.Circuit{Name: c.Name, Fabric: c.Fabric, Nets: slices.Clone(c.Nets)}
	edited.Nets[k] = &moved
	return edited
}

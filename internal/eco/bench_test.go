package eco_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/detail"
	"stitchroute/internal/eco"
	"stitchroute/internal/geom"
	"stitchroute/internal/harness"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
)

// s13207 is a routed S13207 and single-pin-move scripts on it, built
// once per test binary.
var s13207 struct {
	once    sync.Once
	c       *netlist.Circuit
	parent  *core.Result
	scripts []*eco.Script
	err     error
}

// patchSetup routes S13207 and derives one script per edited net: pin 0
// of nets spread across the net list moved to the nearest free cell two
// columns to its right, a local change as an ECO is.
func patchSetup(tb testing.TB) (*netlist.Circuit, *core.Result, []*eco.Script) {
	tb.Helper()
	s := &s13207
	s.once.Do(func() {
		spec, err := bench.ByName("S13207")
		if err != nil {
			s.err = err
			return
		}
		s.c = bench.Generate(spec)
		if s.parent, s.err = core.Route(s.c, core.StitchAware()); s.err != nil {
			return
		}
		used := map[geom.Point]bool{}
		for _, n := range s.c.Nets {
			for _, p := range n.Pins {
				used[p.Point] = true
			}
		}
		f := s.c.Fabric
		for _, i := range []int{3, 10, 50, 100, 200, 500, 1000, 2000} {
			n := s.c.Nets[i]
			p := n.Pins[0].Point
			for x := p.X + 2; x < f.XTracks; x++ {
				if q := (geom.Point{X: x, Y: p.Y}); !used[q] {
					s.scripts = append(s.scripts, &eco.Script{Edits: []eco.Edit{{Op: eco.OpMovePin, ID: n.ID, X: q.X, Y: q.Y}}})
					break
				}
			}
		}
	})
	if s.err != nil {
		tb.Fatal(s.err)
	}
	return s.c, s.parent, s.scripts
}

// BenchmarkPatch times patch-mode ECO on S13207 for single-pin moves,
// one script per iteration in turn. Every patch must reproduce the
// first patch of its script exactly and carry the report a full DRC
// check gives (checked outside the timer). It reports the detail and DRC
// stage times per patch. CI runs it with -benchtime=1x as a smoke test.
func BenchmarkPatch(b *testing.B) {
	c, parent, scripts := patchSetup(b)
	cfg := core.StitchAware()
	hashes := make([]string, len(scripts))
	var detail, check time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(scripts)
		er, err := eco.ReroutePatch(parent, c, scripts[k], cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		detail += er.Times.Detail
		check += er.Times.DRC
		if er.Stats.Fallback {
			b.Fatal("patch fell back to a cold route")
		}
		h, err := nlio.RoutesHash(er.Routes)
		if err != nil {
			b.Fatal(err)
		}
		if hashes[k] == "" {
			hashes[k] = h
			if err := harness.CheckReport(er.Edited, er.Result); err != nil {
				b.Fatal(err)
			}
		} else if h != hashes[k] {
			b.Fatalf("script %d: routes hash %.12s, first run %.12s", k, h, hashes[k])
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(detail.Microseconds())/1e3/float64(b.N), "detail-ms/op")
	b.ReportMetric(float64(check.Microseconds())/1e3/float64(b.N), "drc-ms/op")
}

// TestPatchAllocs pins what one S13207 patch allocates, in count and in
// bytes. A patch borrows its router's arena and occupancy grid from a
// pool and updates the parent's DRC report instead of re-checking the
// chip, so neither bound scales with the chip: a patch allocates about
// 1,300 times and 1.4 MB (9.9 MB when every patch allocated its own
// scratch), and an allocation per net would add 3,781.
func TestPatchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("routes S13207")
	}
	c, parent, scripts := patchSetup(t)
	cfg := core.StitchAware()
	patch := func() {
		for _, s := range scripts {
			if _, err := eco.ReroutePatch(parent, c, s, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	patch() // warm the arena pool
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(3, patch) / float64(len(scripts))
	runtime.ReadMemStats(&m1)
	// AllocsPerRun makes one warm-up call besides its three runs.
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(4*len(scripts))
	if allocs > 2000 || bytes > 3e6 {
		t.Errorf("S13207 patch: %.0f allocs and %.2f MB, want at most 2000 and 3 MB", allocs, bytes/1e6)
	}
}

// TestColdRecordAllocs pins what a cold S13207 detail run allocates,
// its ECO recording included, in count and in bytes. The recorder keeps
// dense footprint bitsets only for the net being routed and packs every
// net's footprints as they are recorded: the run allocates about 60,400
// times and 22.1 MB. Three dense bitsets per net, packed after the run,
// cost 64,100 allocations and 24.6 MB; one dense 480-byte bitset per
// net would add 3,781 allocations and 1.8 MB.
func TestColdRecordAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("routes S13207")
	}
	c, parent, _ := patchSetup(t)
	cfg := core.StitchAware()
	var res *detail.Result
	run := func() { res = detail.NewRouter(c.Fabric, cfg.Detail).Run(c, parent.Plans) }
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(1, run)
	runtime.ReadMemStats(&m1)
	// AllocsPerRun makes one warm-up call besides its run.
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / 2
	if res.Acts.Len() != len(c.Nets) || res.WActs.Len() != len(c.Nets) {
		t.Fatalf("recorded %d and %d footprints for %d nets", res.Acts.Len(), res.WActs.Len(), len(c.Nets))
	}
	if allocs > 62000 || bytes > 23e6 {
		t.Errorf("S13207 cold detail run: %.0f allocs and %.2f MB, want at most 62,000 and 23 MB", allocs, bytes/1e6)
	}
	t.Logf("S13207 cold detail run: %.0f allocs, %.2f MB", allocs, bytes/1e6)
}

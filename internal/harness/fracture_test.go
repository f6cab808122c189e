package harness

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"stitchroute/internal/core"
	"stitchroute/internal/fracture"
	"stitchroute/internal/geom"
	"stitchroute/internal/plan"
	"stitchroute/internal/raster"
	"stitchroute/internal/stencil"
)

func fractureGoldenPath() string {
	return filepath.Join("testdata", "golden", "fracture.json")
}

// TestFractureGolden is the write-prep regression gate: the golden
// benchmarks are routed and fractured, and the shot counts (plus the
// canonical shot hash) must match the committed snapshot exactly.
// It also pins the headline acceptance property: L-shape fracturing
// strictly beats the rectangle baseline on every golden circuit.
// Refresh every pinned snapshot with make repin.
func TestFractureGolden(t *testing.T) {
	var got []FractureMetrics
	for _, name := range goldenBenchmarks {
		fresh := benchCircuit(t, name)
		c := fresh()
		res, _, err := RouteAndCheck(c, core.StitchAware())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := CollectFracture(c, res.Routes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.LShapeShot >= m.RectShots {
			t.Errorf("%s: lshape %d shots >= rect %d", name, m.LShapeShot, m.RectShots)
		}
		got = append(got, m)
	}
	if *update {
		if err := UpdateGolden(os.Stdout, fractureGoldenPath(), got, func(m FractureMetrics) string { return m.Circuit }); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := ReadGolden[FractureMetrics](fractureGoldenPath())
	if err != nil {
		t.Fatalf("missing fracture golden file (run make repin to create): %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("fracture golden has %d entries, want %d", len(want), len(got))
	}
	for i := range got {
		for _, bad := range CompareFracture(got[i], want[i]) {
			t.Errorf("%s: %s", got[i].Circuit, bad)
		}
	}
}

// rasterDifferential renders the unfractured layer geometry and the
// fractured shots onto the same pixel grid and fails on any pixel
// mismatch — the proof that fracturing is area-exact: shots expose
// exactly the routed ink, nothing more, nothing less.
func rasterDifferential(t *testing.T, routes []plan.NetRoute, shots []fracture.Shot, layers, w, h int) {
	t.Helper()
	toF := func(rs []geom.Rect) []raster.RectF {
		out := make([]raster.RectF, len(rs))
		for i, r := range rs {
			out[i] = raster.RectF{X0: float64(r.X0), Y0: float64(r.Y0),
				X1: float64(r.X1 + 1), Y1: float64(r.Y1 + 1)}
		}
		return out
	}
	for l := 1; l <= layers; l++ {
		ref := raster.Render(w, h, toF(fracture.InputRects(routes, l)))
		frac := raster.Render(w, h, toF(fracture.ShotRects(nil, shots, l)))
		diff := 0
		for i := range ref.Pix {
			if ref.Pix[i] != frac.Pix[i] {
				diff++
			}
		}
		if diff > 0 {
			t.Errorf("layer %d: fractured raster differs from reference on %d/%d pixels",
				l, diff, len(ref.Pix))
		}
	}
}

// TestFractureRasterDifferential runs the raster differential gate over
// every golden benchmark in both fracturing modes.
func TestFractureRasterDifferential(t *testing.T) {
	names := goldenBenchmarks
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fresh := benchCircuit(t, name)
			c := fresh()
			res, _, err := RouteAndCheck(c, core.StitchAware())
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []fracture.Mode{fracture.ModeRect, fracture.ModeLShape} {
				fr := fracture.Fracture(res.Routes, c.Fabric.Layers, mode, fracture.Options{})
				rasterDifferential(t, res.Routes, fr.Shots, c.Fabric.Layers,
					c.Fabric.XTracks, c.Fabric.YTracks)
			}
		})
	}
}

// TestFractureShotsDisjoint asserts the no-overlap half of the exactness
// property directly on the shot rectangles of a routed benchmark: within
// a layer, no two shot rectangles share a cell.
func TestFractureShotsDisjoint(t *testing.T) {
	fresh := benchCircuit(t, "S5378")
	c := fresh()
	res, _, err := RouteAndCheck(c, core.StitchAware())
	if err != nil {
		t.Fatal(err)
	}
	fr := fracture.Fracture(res.Routes, c.Fabric.Layers, fracture.ModeLShape, fracture.Options{})
	for l := 1; l <= c.Fabric.Layers; l++ {
		rects := fracture.ShotRects(nil, fr.Shots, l)
		sort.Slice(rects, func(i, j int) bool {
			if rects[i].Y0 != rects[j].Y0 {
				return rects[i].Y0 < rects[j].Y0
			}
			return rects[i].X0 < rects[j].X0
		})
		for i, a := range rects {
			for j := i + 1; j < len(rects); j++ {
				b := rects[j]
				if b.Y0 > a.Y1 {
					break // sorted by Y0: nothing later can overlap a
				}
				if a.Overlaps(b) {
					t.Fatalf("layer %d: shot rects overlap: %+v and %+v", l, a, b)
				}
			}
		}
	}
}

// TestFractureAreaIdentity checks union-area bookkeeping on seeded
// harness circuits: the sum of shot areas equals the reported union area
// in both modes, and both modes expose the identical area.
func TestFractureAreaIdentity(t *testing.T) {
	specs := ShortGrid()
	for _, base := range specs {
		spec := base
		spec.Seed = 7
		c := Generate(spec)
		res, _, err := RouteAndCheck(c, core.StitchAware())
		if err != nil {
			t.Fatal(err)
		}
		rect := fracture.Fracture(res.Routes, c.Fabric.Layers, fracture.ModeRect, fracture.Options{})
		ls := fracture.Fracture(res.Routes, c.Fabric.Layers, fracture.ModeLShape, fracture.Options{})
		if rect.Area != ls.Area {
			t.Errorf("%s: rect area %d != lshape area %d", spec.String(), rect.Area, ls.Area)
		}
		for _, fr := range []*fracture.Result{rect, ls} {
			var sum int64
			for _, s := range fr.Shots {
				sum += int64(s.Area())
			}
			if sum != fr.Area {
				t.Errorf("%s/%s: shot areas sum to %d, union area %d",
					spec.String(), fr.Mode, sum, fr.Area)
			}
		}
	}
}

// TestFractureDeterminism asserts the write-prep determinism contract on
// a routed benchmark: fracturing twice yields the identical canonical
// shot hash.
func TestFractureDeterminism(t *testing.T) {
	fresh := benchCircuit(t, "Primary1")
	c := fresh()
	res, _, err := RouteAndCheck(c, core.StitchAware())
	if err != nil {
		t.Fatal(err)
	}
	h1, err := fracture.ShotsHash(fracture.Fracture(res.Routes, c.Fabric.Layers, fracture.ModeLShape, fracture.Options{}).Shots)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := fracture.ShotsHash(fracture.Fracture(res.Routes, c.Fabric.Layers, fracture.ModeLShape, fracture.Options{}).Shots)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("fracture reruns differ: %s vs %s", h1[:12], h2[:12])
	}
}

// BenchmarkWritePrep times the write-prep stages on routed S9234: L-shape
// fracture, the canonical shot hash and stencil planning. Each iteration
// must reproduce the golden shot and plan hashes, so a faster write-prep
// that changes its output fails here. Run with -benchmem for the allocation
// counts.
func BenchmarkWritePrep(b *testing.B) {
	goldens, err := ReadGolden[FractureMetrics](fractureGoldenPath())
	if err != nil {
		b.Fatal(err)
	}
	var want FractureMetrics
	for _, g := range goldens {
		if g.Circuit == "S9234" {
			want = g
		}
	}
	if want.ShotsHash == "" {
		b.Fatal("no S9234 entry in the fracture golden")
	}
	c := benchCircuit(b, "S9234")()
	res, err := core.Route(c, core.StitchAware())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := fracture.Fracture(res.Routes, c.Fabric.Layers, fracture.ModeLShape, fracture.Options{})
		hash, err := fracture.ShotsHash(fr.Shots)
		if err != nil {
			b.Fatal(err)
		}
		if hash != want.ShotsHash {
			b.Fatalf("shots hash %.12s, golden %.12s", hash, want.ShotsHash)
		}
		planHash, err := stencil.PlanHash(stencil.Build(fr.Shots, stencil.Options{}))
		if err != nil {
			b.Fatal(err)
		}
		if planHash != want.PlanHash {
			b.Fatalf("stencil plan hash %.12s, golden %.12s", planHash, want.PlanHash)
		}
	}
}

package fracture

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/geom"
	"stitchroute/internal/plan"
)

// layerRowsRef is the map-and-sort row coverage that layerRows replaced,
// kept as the reference for the bitset version: bucket every wire cell
// run and via pad by row, then sort and merge each row's intervals.
func layerRowsRef(routes []plan.NetRoute, layer int) []row {
	raw := map[int][]geom.Interval{}
	add := func(y int, iv geom.Interval) { raw[y] = append(raw[y], iv) }
	for i := range routes {
		for _, w := range routes[i].Wires {
			if w.Layer != layer || w.Span.Empty() {
				continue
			}
			if w.Orient == geom.Horizontal {
				add(w.Fixed, w.Span)
			} else {
				for y := w.Span.Lo; y <= w.Span.Hi; y++ {
					add(y, geom.Interval{Lo: w.Fixed, Hi: w.Fixed})
				}
			}
		}
		for _, v := range routes[i].Vias {
			if v.Layer == layer || v.Layer+1 == layer {
				add(v.Y, geom.Interval{Lo: v.X, Hi: v.X})
			}
		}
	}
	ys := make([]int, 0, len(raw))
	for y := range raw {
		ys = append(ys, y)
	}
	sort.Ints(ys)
	rows := make([]row, 0, len(ys))
	for _, y := range ys {
		rows = append(rows, row{y: y, runs: mergeRunsRef(raw[y])})
	}
	return rows
}

// mergeRunsRef sorts the intervals and merges overlapping or
// cell-adjacent ones in place.
func mergeRunsRef(ivs []geom.Interval) []geom.Interval {
	if len(ivs) == 0 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].Lo != ivs[j].Lo {
			return ivs[i].Lo < ivs[j].Lo
		}
		return ivs[i].Hi < ivs[j].Hi
	})
	out := 0
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Lo <= ivs[out].Hi+1 {
			if ivs[i].Hi > ivs[out].Hi {
				ivs[out].Hi = ivs[i].Hi
			}
			continue
		}
		out++
		ivs[out] = ivs[i]
	}
	return ivs[:out+1]
}

// checkRowsMatchRef compares layerRows with the reference on every
// layer, reusing one coverage scratch across layers as Fracture does.
func checkRowsMatchRef(t *testing.T, routes []plan.NetRoute, layers int) {
	t.Helper()
	var cv coverage
	for l := 0; l <= layers+1; l++ {
		got := cv.layerRows(routes, l)
		want := layerRowsRef(routes, l)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("layer %d: bitset rows differ from reference:\n got %v\nwant %v", l, got, want)
		}
	}
}

// TestLayerRowsMatchesReference checks the bitset row coverage against
// the map-and-sort reference on routed benchmarks.
func TestLayerRowsMatchesReference(t *testing.T) {
	names := []string{"Primary1", "S5378", "S9234"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := bench.Generate(spec)
			res, err := core.Route(c, core.StitchAware())
			if err != nil {
				t.Fatal(err)
			}
			checkRowsMatchRef(t, res.Routes, c.Fabric.Layers)
		})
	}
}

// randomLayout builds nets of random wires and vias on 3 layers inside
// an offset window that straddles the origin, so coordinates go
// negative. Short coordinate ranges make duplicate, overlapping and
// cell-adjacent wires common; some spans are empty (Lo > Hi).
func randomLayout(rng *rand.Rand) []plan.NetRoute {
	ox, oy := rng.Intn(200)-100, rng.Intn(200)-100
	w, h := 1+rng.Intn(140), 1+rng.Intn(40)
	routes := make([]plan.NetRoute, 1+rng.Intn(4))
	for i := range routes {
		r := &routes[i]
		r.NetID = i + 1
		for k := rng.Intn(30); k > 0; k-- {
			seg := geom.Segment{Layer: 1 + rng.Intn(3)}
			if rng.Intn(2) == 0 {
				seg.Orient = geom.Horizontal
				seg.Fixed = oy + rng.Intn(h)
				seg.Span = geom.Interval{Lo: ox + rng.Intn(w), Hi: ox + rng.Intn(w)}
			} else {
				seg.Orient = geom.Vertical
				seg.Fixed = ox + rng.Intn(w)
				seg.Span = geom.Interval{Lo: oy + rng.Intn(h), Hi: oy + rng.Intn(h)}
			}
			r.Wires = append(r.Wires, seg)
			if rng.Intn(5) == 0 {
				r.Wires = append(r.Wires, seg) // exact duplicate
			}
		}
		for k := rng.Intn(8); k > 0; k-- {
			r.Vias = append(r.Vias, plan.Via{X: ox + rng.Intn(w), Y: oy + rng.Intn(h), Layer: 1 + rng.Intn(2)})
		}
	}
	return routes
}

// TestLayerRowsRandomMatchesReference checks the bitset row coverage
// against the reference on random layouts, plus hand-built cases for
// runs that cross 64-bit word boundaries and runs that merge only
// because they are cell-adjacent.
func TestLayerRowsRandomMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		checkRowsMatchRef(t, randomLayout(rng), 3)
	}
	edge := routesFromWires([]geom.Segment{
		geom.HSeg(1, -3, -70, -6), // ends one cell before the next run
		geom.HSeg(1, -3, -5, 58),  // starts cell-adjacent: one run -70..58
		geom.HSeg(1, 0, 63, 64),   // straddles a word boundary
		geom.HSeg(1, 0, 0, 127),   // whole words
		geom.HSeg(1, 2, 5, 5),
		geom.VSeg(1, 6, 0, 4), // adjacent to the 5..5 cell on row 2
	}, plan.Via{X: 200, Y: 1, Layer: 1}, plan.Via{X: -71, Y: -3, Layer: 1})
	checkRowsMatchRef(t, edge, 2)
}

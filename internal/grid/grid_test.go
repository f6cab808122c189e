package grid

import (
	"testing"
	"testing/quick"

	"stitchroute/internal/geom"
)

func testFabric() *Fabric { return New(60, 45, 3) }

func TestValidate(t *testing.T) {
	if err := testFabric().Validate(); err != nil {
		t.Fatalf("default fabric invalid: %v", err)
	}
	bad := []*Fabric{
		{XTracks: 1, YTracks: 10, Layers: 3, StitchPitch: 15, SUREps: 1, EscapeWidth: 2},
		{XTracks: 10, YTracks: 10, Layers: 0, StitchPitch: 15, SUREps: 1, EscapeWidth: 2},
		{XTracks: 10, YTracks: 10, Layers: 3, StitchPitch: 2, SUREps: 1, EscapeWidth: 2},
		{XTracks: 10, YTracks: 10, Layers: 3, StitchPitch: 15, SUREps: 8, EscapeWidth: 8},
		{XTracks: 10, YTracks: 10, Layers: 3, StitchPitch: 15, SUREps: 2, EscapeWidth: 1},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad fabric %d validated", i)
		}
	}
}

func TestLayerDir(t *testing.T) {
	f := testFabric()
	want := []Dir{geom.Horizontal, geom.Vertical, geom.Horizontal, geom.Vertical}
	for l := 1; l <= 4; l++ {
		if got := f.LayerDir(l); got != want[l-1] {
			t.Errorf("LayerDir(%d) = %v, want %v", l, got, want[l-1])
		}
	}
}

func TestStitchCols(t *testing.T) {
	f := testFabric() // 60 tracks, pitch 15 -> stitch at 0,15,30,45
	want := []int{0, 15, 30, 45}
	got := f.StitchCols()
	if len(got) != len(want) {
		t.Fatalf("StitchCols = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StitchCols = %v, want %v", got, want)
		}
	}
	for _, x := range want {
		if !f.IsStitchCol(x) {
			t.Errorf("IsStitchCol(%d) = false", x)
		}
	}
	for _, x := range []int{1, 14, 16, 44, 59} {
		if f.IsStitchCol(x) {
			t.Errorf("IsStitchCol(%d) = true", x)
		}
	}
}

func TestNearestStitch(t *testing.T) {
	f := testFabric()
	cases := []struct{ x, pos, dist int }{
		{0, 0, 0}, {1, 0, 1}, {7, 0, 7}, {8, 15, 7}, {14, 15, 1},
		{15, 15, 0}, {16, 15, 1}, {50, 45, 5},
		{55, 45, 10}, // right neighbor 60 is off-fabric, so left line wins
		{59, 45, 14},
	}
	for _, c := range cases {
		pos, dist := f.NearestStitch(c.x)
		if pos != c.pos || dist != c.dist {
			t.Errorf("NearestStitch(%d) = (%d,%d), want (%d,%d)", c.x, pos, dist, c.pos, c.dist)
		}
	}
}

func TestSURAndEscape(t *testing.T) {
	f := testFabric() // eps=1, escape=2
	surTrue := []int{1, 14, 16, 29, 31, 44, 46}
	for _, x := range surTrue {
		if !f.InSUR(x) {
			t.Errorf("InSUR(%d) = false", x)
		}
		if s, ok := f.SURStitch(x); !ok || s%15 != 0 {
			t.Errorf("SURStitch(%d) = %d,%v", x, s, ok)
		}
	}
	surFalse := []int{0, 2, 7, 13, 15, 30}
	for _, x := range surFalse {
		if f.InSUR(x) {
			t.Errorf("InSUR(%d) = true", x)
		}
		if _, ok := f.SURStitch(x); ok {
			t.Errorf("SURStitch(%d) ok for non-SUR track", x)
		}
	}
	for _, x := range []int{1, 2, 13, 14, 16, 17} {
		if !f.InEscape(x) {
			t.Errorf("InEscape(%d) = false", x)
		}
	}
	for _, x := range []int{0, 3, 12, 15} {
		if f.InEscape(x) {
			t.Errorf("InEscape(%d) = true", x)
		}
	}
}

func TestSURSubsetOfEscape(t *testing.T) {
	f := testFabric()
	for x := 0; x < f.XTracks; x++ {
		if f.InSUR(x) && !f.InEscape(x) {
			t.Errorf("track %d in SUR but not escape region", x)
		}
		if f.IsStitchCol(x) && (f.InSUR(x) || f.InEscape(x)) {
			t.Errorf("stitch track %d classified as SUR/escape", x)
		}
	}
}

func TestTiles(t *testing.T) {
	f := testFabric() // 60x45, pitch 15 -> 4x3 tiles
	if f.TilesX() != 4 || f.TilesY() != 3 {
		t.Fatalf("tiles = %dx%d, want 4x3", f.TilesX(), f.TilesY())
	}
	if tx, ty := f.TileOf(geom.Point{X: 31, Y: 29}); tx != 2 || ty != 1 {
		t.Errorf("TileOf(31,29) = %d,%d", tx, ty)
	}
	r := f.TileRect(3, 2)
	if r != (geom.Rect{X0: 45, Y0: 30, X1: 59, Y1: 44}) {
		t.Errorf("TileRect(3,2) = %+v", r)
	}
}

func TestRaggedTiles(t *testing.T) {
	f := New(50, 40, 3) // last column 45..49, last row 30..39
	if f.TilesX() != 4 || f.TilesY() != 3 {
		t.Fatalf("tiles = %dx%d, want 4x3", f.TilesX(), f.TilesY())
	}
	r := f.TileRect(3, 2)
	if r != (geom.Rect{X0: 45, Y0: 30, X1: 49, Y1: 39}) {
		t.Errorf("ragged TileRect = %+v", r)
	}
}

func TestCapacities(t *testing.T) {
	f := testFabric()
	// Tile column 0: tracks 0..14. Stitch: 0. SUR: 1 and 14. Free: 12.
	c := f.ClassifyTileCol(0)
	if c.Stitch != 1 || c.SUR != 2 || c.Free != 12 {
		t.Fatalf("ClassifyTileCol(0) = %+v", c)
	}
	if f.VertCapacity(0) != 14 {
		t.Errorf("VertCapacity = %d, want 14", f.VertCapacity(0))
	}
	if f.LineEndCapacity(0) != 12 {
		t.Errorf("LineEndCapacity = %d, want 12", f.LineEndCapacity(0))
	}
	if f.HorizCapacity(0) != 15 {
		t.Errorf("HorizCapacity = %d, want 15", f.HorizCapacity(0))
	}
	// Ragged last row of a 45-track-high fabric: 45..44? rows 30..44 full.
	if f.HorizCapacity(2) != 15 {
		t.Errorf("HorizCapacity(2) = %d, want 15", f.HorizCapacity(2))
	}
}

func TestClassesPartitionTileColumn(t *testing.T) {
	f := testFabric()
	for tx := 0; tx < f.TilesX(); tx++ {
		c := f.ClassifyTileCol(tx)
		if c.Stitch+c.SUR+c.Free != f.TileRect(tx, 0).W() {
			t.Errorf("tile col %d classes %+v don't partition width %d", tx, c, f.TileRect(tx, 0).W())
		}
	}
}

func TestTileOfInverseOfTileRect(t *testing.T) {
	f := testFabric()
	check := func(x, y uint16) bool {
		p := geom.Point{X: int(x) % f.XTracks, Y: int(y) % f.YTracks}
		tx, ty := f.TileOf(p)
		return f.TileRect(tx, ty).Contains(p)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundsInBounds(t *testing.T) {
	f := testFabric()
	b := f.Bounds()
	if b != (geom.Rect{X0: 0, Y0: 0, X1: 59, Y1: 44}) {
		t.Fatalf("Bounds = %+v", b)
	}
	if !f.InBounds(geom.Point{X: 0, Y: 0}) || !f.InBounds(geom.Point{X: 59, Y: 44}) {
		t.Error("corners not in bounds")
	}
	if f.InBounds(geom.Point{X: 60, Y: 0}) || f.InBounds(geom.Point{X: -1, Y: 3}) {
		t.Error("out-of-range points in bounds")
	}
}

func TestNearestStitchProperty(t *testing.T) {
	f := testFabric()
	check := func(raw uint16) bool {
		x := int(raw) % f.XTracks
		pos, dist := f.NearestStitch(x)
		if pos%f.StitchPitch != 0 {
			return false
		}
		if geom.Abs(x-pos) != dist {
			return false
		}
		// No on-fabric stitch line is strictly closer.
		for _, s := range f.StitchCols() {
			if geom.Abs(x-s) < dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

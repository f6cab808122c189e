// Package grid models the MEBL routing fabric: a gridded multi-layer
// routing plane with alternating preferred directions, global tiles, and the
// vertical stitching lines induced by parallel e-beam writing.
//
// All coordinates are integer track indices. Vertical tracks sit at x = 0,
// 1, 2, ...; horizontal tracks at y = 0, 1, 2, .... Stitching lines are
// vertical and occur every StitchPitch vertical tracks, at x ≡ 0 (mod
// StitchPitch), which is also the boundary between two global tile columns:
// tile column k covers x in [k·StitchPitch, (k+1)·StitchPitch).
package grid

import (
	"fmt"

	"stitchroute/internal/geom"
)

// Default fabric parameters from the paper's experimental setup (§IV):
// stitching lines every 15 routing pitches, and the tracks adjacent to a
// stitching line fall in its stitch-unfriendly region.
const (
	DefaultStitchPitch = 15
	DefaultSUREps      = 1
	DefaultEscapeWidth = 2 // tracks per side; "four tracks nearest a stitching line" (§III-D1)
)

// Fabric describes one routing fabric instance.
type Fabric struct {
	// XTracks and YTracks are the number of vertical tracks (distinct x
	// positions) and horizontal tracks (distinct y positions).
	XTracks, YTracks int
	// Layers is the number of routing layers, numbered 1..Layers.
	// Layer 1 is horizontal-preferred; directions alternate upward.
	Layers int
	// StitchPitch is the spacing of vertical stitching lines in tracks.
	StitchPitch int
	// SUREps is the stitch-unfriendly-region half width ε in tracks: a
	// vertical track x is stitch-unfriendly if 0 < |x - s| <= SUREps for
	// some stitching line s.
	SUREps int
	// EscapeWidth is the escape-region half width in tracks: the
	// 2·EscapeWidth tracks nearest a stitching line (excluding the
	// stitching track itself) form its escape region.
	EscapeWidth int
}

// New returns a fabric with the paper's default stitch parameters.
func New(xTracks, yTracks, layers int) *Fabric {
	f := &Fabric{
		XTracks:     xTracks,
		YTracks:     yTracks,
		Layers:      layers,
		StitchPitch: DefaultStitchPitch,
		SUREps:      DefaultSUREps,
		EscapeWidth: DefaultEscapeWidth,
	}
	return f
}

// Validate checks that the fabric parameters are self-consistent.
func (f *Fabric) Validate() error {
	switch {
	case f.XTracks < 2 || f.YTracks < 2:
		return fmt.Errorf("grid: fabric %dx%d too small", f.XTracks, f.YTracks)
	case f.Layers < 1:
		return fmt.Errorf("grid: need at least 1 layer, have %d", f.Layers)
	case f.StitchPitch < 4:
		return fmt.Errorf("grid: stitch pitch %d too small", f.StitchPitch)
	case f.SUREps < 0 || f.SUREps*2+1 >= f.StitchPitch:
		return fmt.Errorf("grid: SUR eps %d incompatible with stitch pitch %d", f.SUREps, f.StitchPitch)
	case f.EscapeWidth < f.SUREps || f.EscapeWidth*2+1 >= f.StitchPitch:
		return fmt.Errorf("grid: escape width %d incompatible with stitch pitch %d", f.EscapeWidth, f.StitchPitch)
	}
	return nil
}

// Dir is a layer's preferred routing direction.
type Dir = geom.Orientation

// LayerDir returns the preferred direction of layer l (1-based).
// Layer 1 is horizontal; directions alternate.
func (f *Fabric) LayerDir(l int) Dir {
	if l%2 == 1 {
		return geom.Horizontal
	}
	return geom.Vertical
}

// Bounds returns the full track rectangle of the fabric.
func (f *Fabric) Bounds() geom.Rect {
	return geom.Rect{X0: 0, Y0: 0, X1: f.XTracks - 1, Y1: f.YTracks - 1}
}

// InBounds reports whether point p lies on the fabric.
func (f *Fabric) InBounds(p geom.Point) bool {
	return p.X >= 0 && p.X < f.XTracks && p.Y >= 0 && p.Y < f.YTracks
}

// IsStitchCol reports whether vertical track x coincides with a stitching
// line. Stitching lines are at x ≡ 0 (mod StitchPitch). The x = 0 layout
// edge is treated as a stitching line too (the boundary of the first
// stripe).
func (f *Fabric) IsStitchCol(x int) bool {
	return x >= 0 && x < f.XTracks && x%f.StitchPitch == 0
}

// StitchCols returns all stitching-line x positions on the fabric, in
// increasing order.
func (f *Fabric) StitchCols() []int {
	var cols []int
	for x := 0; x < f.XTracks; x += f.StitchPitch {
		cols = append(cols, x)
	}
	return cols
}

// NearestStitch returns the stitching line position nearest to vertical
// track x (ties resolve to the left line) and the distance to it.
func (f *Fabric) NearestStitch(x int) (pos, dist int) {
	k := x / f.StitchPitch
	left := k * f.StitchPitch
	right := left + f.StitchPitch
	if right >= f.XTracks { // no stitching line at/after the right edge
		return left, x - left
	}
	if x-left <= right-x {
		return left, x - left
	}
	return right, right - x
}

// InSUR reports whether vertical track x lies in the stitch-unfriendly
// region of some stitching line: within SUREps tracks of it but not on it.
func (f *Fabric) InSUR(x int) bool {
	_, d := f.NearestStitch(x)
	return d > 0 && d <= f.SUREps
}

// SURStitch returns the stitching line whose SUR contains track x, or
// (-1, false) if x is not in any SUR.
func (f *Fabric) SURStitch(x int) (int, bool) {
	s, d := f.NearestStitch(x)
	if d > 0 && d <= f.SUREps {
		return s, true
	}
	return -1, false
}

// InEscape reports whether vertical track x lies in the escape region of
// some stitching line (within EscapeWidth tracks of it, excluding the
// stitching track itself).
func (f *Fabric) InEscape(x int) bool {
	_, d := f.NearestStitch(x)
	return d > 0 && d <= f.EscapeWidth
}

// TilesX returns the number of global tile columns. Tile column k covers
// x in [k·StitchPitch, (k+1)·StitchPitch); a ragged final column is kept.
func (f *Fabric) TilesX() int {
	return (f.XTracks + f.StitchPitch - 1) / f.StitchPitch
}

// TilesY returns the number of global tile rows (tiles are square in
// tracks: StitchPitch × StitchPitch).
func (f *Fabric) TilesY() int {
	return (f.YTracks + f.StitchPitch - 1) / f.StitchPitch
}

// TileOfX returns the tile column containing vertical track x.
func (f *Fabric) TileOfX(x int) int { return x / f.StitchPitch }

// TileOfY returns the tile row containing horizontal track y.
func (f *Fabric) TileOfY(y int) int { return y / f.StitchPitch }

// TileOf returns the tile (column, row) containing point p.
func (f *Fabric) TileOf(p geom.Point) (tx, ty int) {
	return f.TileOfX(p.X), f.TileOfY(p.Y)
}

// TileRect returns the track rectangle of tile (tx, ty), clipped to the
// fabric bounds.
func (f *Fabric) TileRect(tx, ty int) geom.Rect {
	r := geom.Rect{
		X0: tx * f.StitchPitch,
		Y0: ty * f.StitchPitch,
		X1: (tx+1)*f.StitchPitch - 1,
		Y1: (ty+1)*f.StitchPitch - 1,
	}
	return r.Intersect(f.Bounds())
}

// VertTrackClasses counts, for one tile column, how many vertical tracks
// fall into each class: on a stitching line, in a SUR, or free. It is the
// basis of the global-routing resource estimation for MEBL (§III-A):
// boundary capacity excludes stitch tracks, and the tile's line-end
// (vertex) capacity is the number of free tracks.
type VertTrackClasses struct {
	Stitch, SUR, Free int
}

// ClassifyTileCol classifies the vertical tracks of tile column tx.
func (f *Fabric) ClassifyTileCol(tx int) VertTrackClasses {
	r := f.TileRect(tx, 0)
	var c VertTrackClasses
	for x := r.X0; x <= r.X1; x++ {
		switch {
		case f.IsStitchCol(x):
			c.Stitch++
		case f.InSUR(x):
			c.SUR++
		default:
			c.Free++
		}
	}
	return c
}

// VertCapacity returns the number of vertical tracks usable for routing in
// tile column tx (all tracks not on a stitching line).
func (f *Fabric) VertCapacity(tx int) int {
	c := f.ClassifyTileCol(tx)
	return c.SUR + c.Free
}

// LineEndCapacity returns the number of vertical tracks in tile column tx
// that are outside every stitch-unfriendly region — the vertex capacity
// c_v of the stitch-aware global routing graph (§III-A).
func (f *Fabric) LineEndCapacity(tx int) int {
	return f.ClassifyTileCol(tx).Free
}

// HorizCapacity returns the number of horizontal tracks crossing a vertical
// tile boundary in tile row ty (horizontal wires may cross stitching
// lines, so no reduction applies).
func (f *Fabric) HorizCapacity(ty int) int {
	r := geom.Rect{X0: 0, Y0: ty * f.StitchPitch, X1: 0, Y1: (ty+1)*f.StitchPitch - 1}
	return r.Intersect(f.Bounds()).H()
}

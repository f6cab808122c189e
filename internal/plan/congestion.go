package plan

// Congestion is a per-tile utilization snapshot exported by the global
// router (global.Router.Congestion). No routing stage reads it; the
// benchmark in benchmark/ still hands it to detail.Router.SetCongestion,
// which ignores it.
type Congestion struct {
	// TW, TH are the tile grid dimensions.
	TW, TH int
	// Pitch is the tile side length in tracks: track (x, y) lies in
	// tile (x/Pitch, y/Pitch).
	Pitch int
	// Level is the row-major (ty*TW + tx) per-tile utilization: the
	// maximum demand/capacity ratio over the tile's boundary edges and
	// its line-end budget. 1.0 means at capacity.
	Level []float64
}

// At returns the utilization of the tile containing track (x, y), or 0
// when the snapshot is absent or the point is outside the tile grid.
func (c *Congestion) At(x, y int) float64 {
	if c == nil || c.Pitch <= 0 {
		return 0
	}
	tx, ty := x/c.Pitch, y/c.Pitch
	if tx < 0 || tx >= c.TW || ty < 0 || ty >= c.TH {
		return 0
	}
	return c.Level[ty*c.TW+tx]
}

// Package mlevel implements the bottom-up multilevel scheduling of the
// two-pass framework (§II-B). The coarsening scheme iteratively groups
// routing tiles into 2×2 blocks; a net becomes *local* at the first level
// whose tile covers its pin bounding box, and each pass processes nets in
// ascending level — local nets first — exactly the order in which the
// iterative "route local nets, then coarsen" loop of the paper would
// reach them.
package mlevel

import (
	"sort"

	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// Schedule returns the circuit's net slots in bottom-up multilevel
// order: ascending level, then ascending HPWL, then net ID
// (deterministic).
func Schedule(c *netlist.Circuit) []int {
	slots := make([]int, len(c.Nets))
	levels := make([]int, len(c.Nets))
	for i, n := range c.Nets {
		slots[i] = i
		levels[i] = plan.Level(n.BBox(), c.Fabric)
	}
	sort.SliceStable(slots, func(i, j int) bool {
		a, b := slots[i], slots[j]
		if levels[a] != levels[b] {
			return levels[a] < levels[b]
		}
		ha, hb := c.Nets[a].HPWL(), c.Nets[b].HPWL()
		if ha != hb {
			return ha < hb
		}
		return c.Nets[a].ID < c.Nets[b].ID
	})
	return slots
}

// Levels returns the number of coarsening levels the circuit needs: the
// level at which a single tile covers the whole die, plus one.
func Levels(c *netlist.Circuit) int {
	f := c.Fabric
	n := f.TilesX()
	if f.TilesY() > n {
		n = f.TilesY()
	}
	levels := 1
	for size := 1; size < n; size *= 2 {
		levels++
	}
	return levels
}

// Histogram counts the nets that become local at each level.
func Histogram(c *netlist.Circuit) []int {
	h := make([]int, Levels(c))
	for _, n := range c.Nets {
		l := plan.Level(n.BBox(), c.Fabric)
		if l >= len(h) {
			// Ragged dies can push a net one level past Levels' estimate.
			h = append(h, make([]int, l-len(h)+1)...)
		}
		h[l]++
	}
	return h
}

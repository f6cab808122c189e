package global

import "stitchroute/internal/plan"

// Congestion exports the post-routing per-tile utilization map (see
// plan.Congestion). A tile's level is the worst demand/capacity ratio over the resources
// that touch it: its right and top boundary edges and its line-end
// budget. Zero-capacity resources count as fully utilized only when
// they carry demand.
func (r *Router) Congestion() *plan.Congestion {
	tw, th := r.tw, r.th
	cg := &plan.Congestion{
		TW:    tw,
		TH:    th,
		Pitch: r.f.StitchPitch,
		Level: make([]float64, tw*th),
	}
	util := func(d, c int32) float64 {
		if c <= 0 {
			if d > 0 {
				return 1
			}
			return 0
		}
		return float64(d) / float64(c)
	}
	for ty := 0; ty < th; ty++ {
		for tx := 0; tx < tw; tx++ {
			v := cg.Level[ty*tw+tx]
			if tx+1 < tw {
				if u := util(r.hDem[ty*(tw-1)+tx], r.hCap[ty*(tw-1)+tx]); u > v {
					v = u
				}
			}
			if ty+1 < th {
				if u := util(r.vDem[ty*tw+tx], r.vCap[ty*tw+tx]); u > v {
					v = u
				}
			}
			if u := util(r.endDem[ty*tw+tx], r.endCap[ty*tw+tx]); u > v {
				v = u
			}
			cg.Level[ty*tw+tx] = v
		}
	}
	return cg
}

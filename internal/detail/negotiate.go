package detail

import (
	"sort"

	"stitchroute/internal/geom"
)

// Negotiation: when a net still fails after its own rip-up, the router
// may evict a few small nets blocking its bounding box, route the failed
// net, and then reroute the victims. This trades a little CPU for the
// last fraction of routability; it is optional (Config.Negotiate) and
// bounded (maxVictims per failed net, one round).

// maxVictims bounds how many blocking nets one failed net may evict.
const maxVictims = 3

// negotiate tries to place the failed net t by evicting up to maxVictims
// small nets inside its region, then rerouting them. It returns whether t
// ended up routed, plus every victim whose geometry changed (the caller
// refreshes their result entries).
func (r *Router) negotiate(t *routeTask, tasks []*routeTask) (bool, []*routeTask) {
	region := t.pinBBox().Expand(8).Intersect(r.f.Bounds())

	// Collect candidate victims: routed nets with geometry in the region,
	// smallest wirelength first (cheapest to move).
	type victim struct {
		task *routeTask
		size int
	}
	var victims []victim
	seen := map[int]bool{t.net.ID: true}
	for _, o := range tasks {
		if seen[o.net.ID] || len(o.wires) == 0 {
			continue
		}
		inRegion := false
		size := 0
		for _, w := range o.wires {
			size += w.Span.Len()
			if w.Bounds().Overlaps(region) {
				inRegion = true
			}
		}
		if inRegion {
			seen[o.net.ID] = true
			victims = append(victims, victim{o, size})
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].size != victims[j].size {
			return victims[i].size < victims[j].size
		}
		return victims[i].task.net.ID < victims[j].task.net.ID
	})
	if len(victims) > maxVictims {
		victims = victims[:maxVictims]
	}
	if len(victims) == 0 {
		return false, nil
	}
	var affected []*routeTask
	for _, v := range victims {
		affected = append(affected, v.task)
	}

	// Evict, place the failed net, reroute the victims.
	for _, v := range victims {
		r.dropNet(v.task)
	}
	ok := r.routeOrDrop(t)
	for _, v := range victims {
		if len(v.task.wires) == 0 {
			r.routeOrDrop(v.task)
		}
	}
	return ok, affected
}

func (t *routeTask) pinBBox() geom.Rect {
	pts := make([]geom.Point, len(t.net.Pins))
	for i, p := range t.net.Pins {
		pts[i] = p.Point
	}
	return geom.BoundingRect(pts)
}

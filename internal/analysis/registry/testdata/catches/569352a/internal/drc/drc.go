// Package drc re-creates the scratch mutation used to check hotalloc in
// commit 569352a: the per-net DRC check appends short-polygon sites
// straight to the report instead of the per-call checkScratch.
package drc

type Point struct{ X, Y int }

type Report struct {
	ShortPolygons int
	SPSites       []Point
}

type checkScratch struct{ sites []Point }

const maxSPSites = 256

// checkNet is the mutated version.
func checkNet(ends []Point, rep *Report, sc *checkScratch) {
	for _, end := range ends {
		rep.ShortPolygons++
		if len(rep.SPSites) < maxSPSites {
			rep.SPSites = append(rep.SPSites, end) // catch: hotalloc
		}
	}
}

// checkNetScratch is the committed version: sites collect in the
// scratch, which Check hands to the report once.
func checkNetScratch(ends []Point, rep *Report, sc *checkScratch) {
	for _, end := range ends {
		rep.ShortPolygons++
		if len(sc.sites) < maxSPSites {
			sc.sites = append(sc.sites, end)
		}
	}
}

// Package stencil implements the second stage of the MEBL write-prep
// pipeline: overlapping-aware stencil planning for character projection.
//
// A character-projection (CP) writer exposes a whole pre-etched stencil
// character in one flash, while a variable-shaped-beam (VSB) writer needs
// one flash per rectangle (two per L-shape shot). Given the fractured
// shot library, the planner
//
//  1. clusters shots into aperture-sized windows and content-hashes each
//     window's bbox-normalized pattern, so repeated patterns across the
//     layout collapse into character candidates;
//  2. lets the plate decide which candidates become characters: each
//     repeated pattern saves count × (flashes × TVSB − TCP) when
//     promoted, and candidates are taken greedily by saving per unit of
//     plate footprint while their footprints fit the stencil area;
//  3. packs the selected characters onto the stencil with E-BLOW-style
//     overlapping-aware 1D row packing (arXiv 1502.00621): neighboring
//     characters share their blank halos, so a row fits more characters
//     than naive per-character margins would allow. Characters that
//     still miss the stencil (tallest-first, those past the last shelf)
//     are dropped deterministically and write as VSB.
//
// Every shot then writes either as its CP character (1 flash per cluster
// occurrence) or as VSB rectangles, and the plan reports both write
// times under a simple per-flash throughput model. Like the router and
// the fracturer, planning is deterministic: byte-identical plans for
// byte-identical shot lists.
package stencil

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"

	"stitchroute/internal/fracture"
	"stitchroute/internal/geom"
)

// Options is empty: stencil planning has no settings.
//
// Deprecated: every former field is now a package constant. The type
// stays only because the benchmark in benchmark/ passes Options{}.
type Options struct{}

// The E-BLOW system model. plateW × plateH is the stencil plate in track
// units. aperture is the maximum character window side: a cluster of shots only becomes a character candidate if its
// bbox fits aperture². halo is the blank margin a character needs around
// its pattern; overlapping-aware packing lets neighboring characters
// share it. tVSB and tCP are the per-flash write times (arbitrary units)
// of a VSB rectangle flash and a CP character flash.
const (
	plateW   = 400
	plateH   = 400
	aperture = 40
	halo     = 2
	tVSB     = 1.0
	tCP      = 1.5
)

// plate is a stencil plate's dimensions in track units: plateW × plateH
// outside tests.
type plate struct{ w, h int }

// Character is one stencil character candidate: a repeated bbox-
// normalized shot pattern.
type Character struct {
	// Hash identifies the normalized pattern (content address).
	Hash string `json:"hash"`
	// W, H are the pattern bbox dimensions.
	W int `json:"w"`
	H int `json:"h"`
	// Count is how many clusters in the layout print this pattern.
	Count int `json:"count"`
	// Flashes is the VSB flash count of one pattern instance.
	Flashes int `json:"flashes"`
	// Saving is Count × (Flashes × TVSB − TCP): the write-time saved by
	// promoting the pattern to a CP character.
	Saving float64 `json:"saving"`
}

// Placement is one packed character on the stencil plate.
type Placement struct {
	Char Character `json:"char"`
	X    int       `json:"x"`
	Y    int       `json:"y"`
}

// Plan is the stencil planning result.
type Plan struct {
	// Placements is the packed character set, row-major on the plate.
	Placements []Placement `json:"placements"`
	// Candidates is how many profitable repeated patterns the layout
	// has; Selected ≤ Candidates were chosen by plate capacity, Dropped
	// of those missed the plate during packing and write as VSB after
	// all.
	Candidates int `json:"candidates"`
	Selected   int `json:"selected"`
	Dropped    int `json:"dropped"`

	// Clusters is the total number of aperture windows; CPFlashes of
	// them print as a stencil character.
	Clusters  int `json:"clusters"`
	CPFlashes int `json:"cpFlashes"`

	// VSBTime is the write time with every shot as VSB flashes; CPTime
	// is the write time under this plan; Saving = VSBTime − CPTime.
	VSBTime float64 `json:"vsbTime"`
	CPTime  float64 `json:"cpTime"`
	Saving  float64 `json:"saving"`

	// SharedBlank is the plate area (track² units) the overlapping-aware
	// packing recovered versus naive per-character halos.
	SharedBlank int `json:"sharedBlank"`
}

// Reduction returns the fractional write-time reduction of the plan.
func (p *Plan) Reduction() float64 {
	if p.VSBTime == 0 {
		return 0
	}
	return p.Saving / p.VSBTime
}

// Build plans a stencil for the fractured shot list.
func Build(shots []fracture.Shot, opts Options) *Plan {
	p, err := BuildContext(context.Background(), shots, opts)
	if err != nil {
		panic("stencil: background context cancelled: " + err.Error())
	}
	return p
}

// BuildContext is Build under a context: cancellation is observed
// between stages.
func BuildContext(ctx context.Context, shots []fracture.Shot, _ Options) (*Plan, error) {
	return build(ctx, shots, plate{w: plateW, h: plateH})
}

// build plans a stencil on the given plate.
func build(ctx context.Context, shots []fracture.Shot, pl plate) (*Plan, error) {
	clusters := clusterShots(shots)
	cands := characterCandidates(clusters)
	plan := &Plan{
		Candidates: len(cands),
		Clusters:   len(clusters),
	}
	for _, s := range shots {
		plan.VSBTime += flashes(s) * tVSB
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("stencil: %w", err)
	}
	selected := selectCharacters(cands, pl)
	packed, shared := pack(selected, pl)
	plan.Placements = packed
	plan.Selected = len(selected)
	plan.Dropped = len(selected) - len(packed)
	plan.SharedBlank = shared

	// Each packed character prints as one CP flash per cluster of its
	// pattern, and Count is that cluster count.
	for _, p := range packed {
		plan.Saving += p.Char.Saving
		plan.CPFlashes += p.Char.Count
	}
	plan.CPTime = plan.VSBTime - plan.Saving
	return plan, nil
}

// flashes returns the VSB flash count of one shot: an L-shape shot
// exposes as its two rectangles.
func flashes(s fracture.Shot) float64 {
	if s.IsL() {
		return 2
	}
	return 1
}

// cluster is one aperture window: a run of canonically-ordered shots on
// one layer whose combined bbox fits the aperture.
type cluster struct {
	shots []fracture.Shot // a subslice of the canonical shot list
	bbox  geom.Rect
}

// clusterShots greedily windows the canonical shot list per layer:
// consecutive shots join the open cluster while the union bbox still
// fits aperture²; any overflow closes it. Greedy on a canonical order is
// what keeps the clustering — and hence the whole plan — deterministic.
// Clusters are contiguous runs of the list, so each one is a subslice
// of shots.
func clusterShots(shots []fracture.Shot) []cluster {
	var out []cluster
	for i, s := range shots {
		b := s.A
		if s.IsL() {
			b = b.Union(s.B)
		}
		if n := len(out); n > 0 && s.Layer == out[n-1].shots[0].Layer {
			cur := &out[n-1]
			if u := cur.bbox.Union(b); u.W() <= aperture && u.H() <= aperture {
				cur.shots = cur.shots[:len(cur.shots)+1] // now ends at shots[i]
				cur.bbox = u
				continue
			}
		}
		out = append(out, cluster{shots: shots[i : i+1], bbox: b})
	}
	// A pattern that alone exceeds the aperture can never be a character.
	kept := out[:0]
	for _, c := range out {
		if c.bbox.W() <= aperture && c.bbox.H() <= aperture {
			kept = append(kept, c)
		}
	}
	return kept
}

// appendPattern appends the cluster's shots translated to the bbox
// origin, layer-agnostic, to dst: clusters printing the same ink in the
// same arrangement serialize identically regardless of position or
// layer.
func appendPattern(dst []byte, c cluster) []byte {
	dx, dy := -c.bbox.X0, -c.bbox.Y0
	for _, s := range c.shots {
		n := fracture.Shot{A: shiftRect(s.A, dx, dy), B: s.B}
		if s.IsL() {
			n.B = shiftRect(s.B, dx, dy)
		}
		dst = fracture.AppendShot(dst, n, false)
	}
	return dst
}

func shiftRect(r geom.Rect, dx, dy int) geom.Rect {
	return geom.Rect{X0: r.X0 + dx, Y0: r.Y0 + dy, X1: r.X1 + dx, Y1: r.Y1 + dy}
}

// characterCandidates groups the clusters by the SHA-256 of their
// pattern and returns the profitable repeated patterns (count ≥ 2,
// positive saving) sorted by saving descending, then hash. That order
// is total, so the grouping order does not reach the output.
func characterCandidates(clusters []cluster) []Character {
	type class struct {
		key   [32]byte
		c     cluster // first cluster with the pattern
		count int
	}
	classes := make([]class, 0, len(clusters))
	byKey := make(map[[32]byte]int, len(clusters))
	var buf []byte
	for _, c := range clusters {
		buf = appendPattern(buf[:0], c)
		key := sha256.Sum256(buf)
		i, ok := byKey[key]
		if !ok {
			i = len(classes)
			byKey[key] = i
			classes = append(classes, class{key: key, c: c})
		}
		classes[i].count++
	}
	var cands []Character
	for _, cl := range classes {
		fl := 0
		for _, s := range cl.c.shots {
			fl += int(flashes(s))
		}
		saving := float64(cl.count) * (float64(fl)*tVSB - tCP)
		if cl.count >= 2 && saving > 0 {
			cands = append(cands, Character{
				Hash:    hex.EncodeToString(cl.key[:]),
				W:       cl.c.bbox.W(),
				H:       cl.c.bbox.H(),
				Count:   cl.count,
				Flashes: fl,
				Saving:  saving,
			})
		}
	}
	slices.SortFunc(cands, func(a, b Character) int {
		if c := cmp.Compare(b.Saving, a.Saving); c != 0 {
			return c
		}
		return strings.Compare(a.Hash, b.Hash)
	})
	return cands
}

package main

import (
	"fmt"
	"time"

	"stitchroute/internal/core"
	"stitchroute/internal/eco"
	"stitchroute/internal/geom"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/plan"
)

// ecoRecord is a circuit's incremental-rerouting measurement.
type ecoRecord struct {
	// ReplaySpeedup and PatchSpeedup divide the mean cold time per edit
	// by the engine's.
	ReplaySpeedup float64 `json:"replaySpeedup"`
	PatchSpeedup  float64 `json:"patchSpeedup"`
	// ReplayHashEqual is the hash-equality gate: every replayed edit's
	// routes hash matched the cold rehash, or the report fails.
	ReplayHashEqual bool `json:"replayHashEqual"`
	// PatchDeterministic is the reproducibility gate: every repetition
	// of a patch produced the identical routes hash, or the report fails.
	PatchDeterministic bool      `json:"patchDeterministic"`
	Edits              []ecoEdit `json:"edits"`
}

type ecoEdit struct {
	// Net is the edited net's ID (a single-pin move to a free cell).
	Net      int     `json:"net"`
	ColdMs   float64 `json:"coldMs"`
	ReplayMs float64 `json:"replayMs"`
	PatchMs  float64 `json:"patchMs"`
	// PatchRerouted is how many nets the graft ripped up and re-ran —
	// the working set the patch time scales with.
	PatchRerouted int `json:"patchRerouted"`
}

// ecoEditIndices picks the representative nets to edit: fixed indices
// spread across the net list, deduplicated for small circuits.
var ecoEditIndices = []int{3, 10, 50, 100, 200}

// ecoFreeCell returns the pin-free cell nearest (px, py) in a
// deterministic ring scan — the target the measured pin move lands on.
// An ECO edit is a local engineering change, so the representative edit
// moves a pin a few tracks, not across the chip.
func ecoFreeCell(c *netlist.Circuit, px, py int) (int, int) {
	used := make(map[geom.Point]bool)
	for _, n := range c.Nets {
		for _, p := range n.Pins {
			used[p.Point] = true
		}
	}
	inb := func(x, y int) bool {
		return x >= 0 && x < c.Fabric.XTracks && y >= 0 && y < c.Fabric.YTracks
	}
	for r := 1; r < c.Fabric.XTracks+c.Fabric.YTracks; r++ {
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				if max(geom.Abs(dx), geom.Abs(dy)) != r {
					continue
				}
				x, y := px+dx, py+dy
				if inb(x, y) && !used[geom.Point{X: x, Y: y}] {
					return x, y
				}
			}
		}
	}
	return c.Fabric.XTracks / 2, c.Fabric.YTracks / 2
}

// bestOf runs route runs times and returns its fastest reported time in
// milliseconds and the routes hash, failing unless every run produced
// the same hash.
func bestOf(runs int, route func() (time.Duration, []plan.NetRoute, error)) (float64, string, error) {
	var best float64
	var hash string
	for r := range runs {
		d, routes, err := route()
		if err != nil {
			return 0, "", err
		}
		h, err := nlio.RoutesHash(routes)
		if err != nil {
			return 0, "", err
		}
		ms := float64(d.Nanoseconds()) / 1e6
		if r == 0 {
			best, hash = ms, h
		} else if h != hash {
			return 0, "", fmt.Errorf("run %d not reproducible: routes hash %.12s != run 0's %.12s", r, h, hash)
		}
		best = min(best, ms)
	}
	return best, hash, nil
}

// measureECO times cold, replay and patch rerouting of each
// representative single-net edit off the routed parent, enforcing the
// hash-equality and determinism gates, and appends the ecoCold,
// ecoReplay and ecoPatch stage times.
func measureECO(rec *record, c *netlist.Circuit, parent *core.Result, runs int) error {
	cfg := core.StitchAware()
	var coldSum, replaySum, patchSum float64
	picked := make(map[int]bool)
	for _, idx := range ecoEditIndices {
		i := idx % len(c.Nets)
		if picked[i] {
			continue
		}
		picked[i] = true
		p0 := c.Nets[i].Pins[0]
		x, y := ecoFreeCell(c, p0.X, p0.Y)
		script := &eco.Script{Edits: []eco.Edit{
			{Op: eco.OpMovePin, ID: c.Nets[i].ID, Pin: 0, X: x, Y: y},
		}}
		pt := ecoEdit{Net: c.Nets[i].ID}

		// Cold baseline: full pipeline on a freshly edited circuit.
		coldMs, coldHash, err := bestOf(runs, func() (time.Duration, []plan.NetRoute, error) {
			edited, err := script.Apply(c)
			if err != nil {
				return 0, nil, err
			}
			start := time.Now()
			res, err := core.Route(edited, cfg)
			if err != nil {
				return 0, nil, err
			}
			return time.Since(start), res.Routes, nil
		})
		if err != nil {
			return fmt.Errorf("net %d: cold: %w", pt.Net, err)
		}

		replayMs, replayHash, err := bestOf(runs, func() (time.Duration, []plan.NetRoute, error) {
			start := time.Now()
			er, err := eco.Reroute(parent, c, script, cfg)
			if err != nil {
				return 0, nil, err
			}
			return time.Since(start), er.Result.Routes, nil
		})
		if err != nil {
			return fmt.Errorf("net %d: replay: %w", pt.Net, err)
		}
		if replayHash != coldHash {
			return fmt.Errorf("net %d: HASH GATE FAILED: replay hash %.12s != cold rehash %.12s",
				pt.Net, replayHash, coldHash)
		}

		patchMs, _, err := bestOf(runs, func() (time.Duration, []plan.NetRoute, error) {
			start := time.Now()
			pr, err := eco.ReroutePatch(parent, c, script, cfg)
			if err != nil {
				return 0, nil, err
			}
			d := time.Since(start)
			pt.PatchRerouted = pr.Stats.DetailRouted
			return d, pr.Result.Routes, nil
		})
		if err != nil {
			return fmt.Errorf("net %d: patch: %w", pt.Net, err)
		}

		coldSum += coldMs
		replaySum += replayMs
		patchSum += patchMs
		pt.ColdMs, pt.ReplayMs, pt.PatchMs = round3(coldMs), round3(replayMs), round3(patchMs)
		rec.ECO.Edits = append(rec.ECO.Edits, pt)
	}
	n := float64(len(rec.ECO.Edits))
	rec.StageMs = append(rec.StageMs,
		stageTime{"ecoCold", round3(coldSum / n)},
		stageTime{"ecoReplay", round3(replaySum / n)},
		stageTime{"ecoPatch", round3(patchSum / n)})
	rec.ECO.ReplaySpeedup = round3(coldSum / replaySum)
	rec.ECO.PatchSpeedup = round3(coldSum / patchSum)
	rec.ECO.ReplayHashEqual, rec.ECO.PatchDeterministic = true, true
	return nil
}

// Command meblroute routes one benchmark circuit with the stitch-aware
// framework (or the conventional baseline) and prints the Table III-style
// summary row: routability, via violations, short polygons, and CPU time.
//
// Usage:
//
//	meblroute -circuit S9234 [-mode stitch|baseline] [-track graph|ilp|conventional] [-fracture rect|lshape] [-stencil] [-timeout 30s] [-cpuprofile f] [-memprofile f] [-v]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/drc"
	"stitchroute/internal/eco"
	"stitchroute/internal/fracture"
	"stitchroute/internal/geom"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/place"
	"stitchroute/internal/stencil"
	"stitchroute/internal/track"
	"stitchroute/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("meblroute: ")
	os.Exit(run())
}

// run holds the whole CLI body so deferred profile writers flush before
// the process exits with a nonzero status.
func run() int {
	var (
		circuit  = flag.String("circuit", "S9234", "benchmark circuit name (see cmd/benchgen -list)")
		inFile   = flag.String("in", "", "route a circuit from an nlio text file instead of a benchmark")
		doPlace  = flag.Bool("place", false, "run stitch-aware placement refinement before routing")
		mode     = flag.String("mode", "stitch", "router mode: stitch or baseline")
		trk      = flag.String("track", "", "override track assignment: conventional, ilp, or graph")
		verbose  = flag.Bool("v", false, "print per-stage detail")
		outFile  = flag.String("routes", "", "write the routed geometry to this file (nlio routes format)")
		jsonOut  = flag.Bool("json", false, "print the result summary as JSON (machine-readable)")
		svgOut   = flag.String("svg", "", "write the routed layout as SVG to this file")
		checkIn  = flag.String("check", "", "skip routing: DRC-check this routes file against the circuit")
		ecoFile  = flag.String("eco", "", "after routing, apply this JSON edit script ({\"edits\":[...]}) and reroute incrementally")
		ecoMode  = flag.String("eco-mode", "replay", "ECO engine: replay (byte-equal to a cold reroute) or patch (graft, fastest)")
		fracMode = flag.String("fracture", "", "run write-prep fracturing on the routed geometry: rect or lshape")
		doSten   = flag.Bool("stencil", false, "plan a CP stencil from the fractured shots (requires -fracture)")
		timeout  = flag.Duration("timeout", 0, "abort routing after this long (0 = no limit)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	cfg := core.StitchAware()
	if *mode == "baseline" {
		cfg = core.Baseline()
	} else if *mode != "stitch" {
		log.Printf("unknown mode %q", *mode)
		return 2
	}
	switch *trk {
	case "":
	case "conventional":
		cfg.TrackAlgo = track.Conventional
	case "ilp":
		cfg.TrackAlgo = track.ILPBased
	case "graph":
		cfg.TrackAlgo = track.GraphBased
	default:
		log.Printf("unknown track algorithm %q", *trk)
		return 2
	}
	var fmode fracture.Mode
	if *fracMode != "" {
		var err error
		if fmode, err = fracture.ParseMode(*fracMode); err != nil {
			log.Print(err)
			return 2
		}
	} else if *doSten {
		log.Print("-stencil requires -fracture")
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Print(err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Print(err)
				return
			}
			runtime.GC() // measure live heap, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
			f.Close()
		}()
	}

	var c *netlist.Circuit
	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			log.Print(err)
			return 1
		}
		c, err = nlio.Read(f)
		f.Close()
		if err != nil {
			log.Print(err)
			return 1
		}
	} else {
		spec, err := bench.ByName(*circuit)
		if err != nil {
			log.Print(err)
			return 1
		}
		c = bench.Generate(spec)
	}
	// In -json mode stdout carries only the JSON document; status lines
	// go to stderr so the output stays machine-readable.
	status := os.Stdout
	if *jsonOut {
		status = os.Stderr
	}
	if *doPlace {
		var st place.Stats
		c, st = place.Refine(c)
		fmt.Fprintf(status, "placement refinement: %d stitch-column pins, %d moved, %d stuck\n",
			st.OnStitch, st.Moved, st.Stuck)
	}
	fmt.Fprintf(status, "%s: %d nets, %d pins, %d layers, grid %dx%d (%dx%d tiles)\n",
		c.Name, len(c.Nets), c.NumPins(), c.Fabric.Layers,
		c.Fabric.XTracks, c.Fabric.YTracks,
		c.Fabric.TilesX(), c.Fabric.TilesY())

	if *checkIn != "" {
		f, err := os.Open(*checkIn)
		if err != nil {
			log.Print(err)
			return 1
		}
		routes, err := nlio.ReadRoutes(f)
		f.Close()
		if err != nil {
			log.Print(err)
			return 1
		}
		rep := drc.Check(c, routes)
		fmt.Printf("Rout. %.2f%%  #VV %d (off-pin %d)  #SP %d  vert-violations %d  WL %d  vias %d\n",
			rep.Routability(), rep.ViaViolations, rep.ViaViolationsOffPin,
			rep.ShortPolygons, rep.VertRouteViolations, rep.Wirelength, rep.Vias)
		if shorts := drc.CheckShorts(routes); shorts > 0 {
			fmt.Printf("cross-net shorts: %d\n", shorts)
			return 1
		}
		if bad := drc.CheckConnectivity(c, routes); bad > 0 {
			fmt.Printf("disconnected routed nets: %d\n", bad)
			return 1
		}
		if rep.VertRouteViolations > 0 || rep.ViaViolationsOffPin > 0 {
			return 1
		}
		return 0
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := core.RouteContext(ctx, c, cfg)
	if err != nil {
		if errors.Is(err, core.ErrCancelled) {
			log.Printf("routing aborted after %v: %v", *timeout, err)
			return 1
		}
		log.Print(err)
		return 1
	}
	rep := res.Report
	var ecoRes *eco.Result
	if *ecoFile != "" {
		f, err := os.Open(*ecoFile)
		if err != nil {
			log.Print(err)
			return 1
		}
		script, err := eco.ParseScript(f)
		f.Close()
		if err != nil {
			log.Print(err)
			return 1
		}
		coldTime := res.Times.Total()
		switch *ecoMode {
		case "replay":
			ecoRes, err = eco.RerouteContext(ctx, res, c, script, cfg)
		case "patch":
			ecoRes, err = eco.ReroutePatchContext(ctx, res, c, script, cfg)
		default:
			log.Printf("unknown -eco-mode %q (want replay or patch)", *ecoMode)
			return 2
		}
		if err != nil {
			log.Print(err)
			return 1
		}
		fmt.Fprintf(status, "eco (%s): %d edits, %d/%d nets rerouted, %.1fms vs %.1fms cold (%.1fx)\n",
			*ecoMode, len(script.Edits), ecoRes.Stats.DetailRouted, len(ecoRes.Edited.Nets),
			float64(ecoRes.Times.Total().Microseconds())/1000,
			float64(coldTime.Microseconds())/1000,
			float64(coldTime)/float64(ecoRes.Times.Total()))
		// Downstream output (-json, -routes, -svg, -fracture) describes
		// the edited circuit's routing.
		c = ecoRes.Edited
		res = ecoRes.Result
		rep = res.Report
	}
	var fres *fracture.Result
	var splan *stencil.Plan
	if *fracMode != "" {
		fres = fracture.Fracture(res.Routes, c.Fabric.Layers, fmode, fracture.Options{})
		if *doSten {
			splan = stencil.Build(fres.Shots, stencil.Options{})
		}
	}
	if *jsonOut {
		summary := map[string]any{
			"circuit":             c.Name,
			"nets":                len(c.Nets),
			"pins":                c.NumPins(),
			"routability":         rep.Routability(),
			"routedNets":          rep.RoutedNets,
			"viaViolations":       rep.ViaViolations,
			"viaViolationsOffPin": rep.ViaViolationsOffPin,
			"vertRouteViolations": rep.VertRouteViolations,
			"shortPolygons":       rep.ShortPolygons,
			"wirelength":          rep.Wirelength,
			"tvof":                res.TVOF,
			"mvof":                res.MVOF,
			"badEnds":             res.TrackStats.BadEnds,
			"rippedNets":          res.RippedNets,
			"failedNets":          res.FailedNets,
			"detailConnects":      res.DetailConnects,
			"detailExpansions":    res.DetailExpansions,
			"detailSeconds":       res.Times.Detail.Seconds(),
			"cpuSeconds":          res.Times.Total().Seconds(),
		}
		if ecoRes != nil {
			summary["eco"] = map[string]any{
				"mode":         *ecoMode,
				"editedNets":   ecoRes.Stats.EditedNets,
				"fallback":     ecoRes.Stats.Fallback,
				"detailReused": ecoRes.Stats.DetailReused,
				"detailRouted": ecoRes.Stats.DetailRouted,
				"globalReused": ecoRes.Stats.GlobalReused,
				"ecoSeconds":   ecoRes.Times.Total().Seconds(),
			}
		}
		if fres != nil {
			hash, err := fracture.ShotsHash(fres.Shots)
			if err != nil {
				log.Print(err)
				return 1
			}
			summary["fracture"] = map[string]any{
				"mode":      fres.Mode.String(),
				"shots":     fres.ShotCount,
				"rectShots": fres.RectShots,
				"lShots":    fres.LShots,
				"slivers":   fres.Slivers,
				"area":      fres.Area,
				"reduction": fres.LShapeReduction(),
				"shotsHash": hash,
			}
		}
		if splan != nil {
			summary["stencil"] = map[string]any{
				"characters": len(splan.Placements),
				"candidates": splan.Candidates,
				"cpFlashes":  splan.CPFlashes,
				"vsbTime":    splan.VSBTime,
				"cpTime":     splan.CPTime,
				"saving":     splan.Saving,
				"reduction":  splan.Reduction(),
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			log.Print(err)
			return 1
		}
	} else {
		fmt.Printf("Rout. %.2f%%  #VV %d  #SP %d  WL %d  CPU %.2fs\n",
			rep.Routability(), rep.ViaViolations, rep.ShortPolygons, rep.Wirelength,
			res.Times.Total().Seconds())
		if fres != nil {
			fmt.Printf("fracture (%s): %d shots", fres.Mode, fres.ShotCount)
			if fres.Mode == fracture.ModeLShape {
				fmt.Printf(" (%d rect baseline, %.1f%% saved)", fres.RectShots, 100*fres.LShapeReduction())
			}
			fmt.Printf(", %d slivers\n", fres.Slivers)
		}
		if splan != nil {
			fmt.Printf("stencil: %d characters, %d CP flashes, write time %.1f -> %.1f (%.1f%% saved)\n",
				len(splan.Placements), splan.CPFlashes, splan.VSBTime, splan.CPTime,
				100*splan.Reduction())
		}
		if *verbose {
			fmt.Printf("  global:  %8.2fs  WL %d  TVOF %d  MVOF %d  edge-overflow %d\n",
				res.Times.Global.Seconds(), res.GlobalWL, res.TVOF, res.MVOF, res.EdgeOverflow)
			fmt.Printf("  layer:   %8.2fs\n", res.Times.Layer.Seconds())
			fmt.Printf("  track:   %8.2fs  bad-ends %d  ripped %d  doglegs %d\n",
				res.Times.Track.Seconds(), res.TrackStats.BadEnds, res.TrackStats.Ripped, res.TrackStats.Doglegs)
			fmt.Printf("  detail:  %8.2fs  ripped-nets %d  failed %d  searches %d  expansions %d\n",
				res.Times.Detail.Seconds(), res.RippedNets, res.FailedNets,
				res.DetailConnects, res.DetailExpansions)
			fmt.Printf("  checks:  vert-violations %d  off-pin VV %d\n",
				rep.VertRouteViolations, rep.ViaViolationsOffPin)
		}
	}
	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			log.Print(err)
			return 1
		}
		var pins []geom.Point
		for _, n := range c.Nets {
			for _, p := range n.Pins {
				pins = append(pins, p.Point)
			}
		}
		err = viz.WriteSVG(f, c.Fabric, res.Routes, viz.Options{
			Scale: 4, ShowSUR: true, Pins: pins,
			Title: fmt.Sprintf("%s — %s", c.Name, *mode),
		})
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := f.Close(); err != nil {
			log.Print(err)
			return 1
		}
		fmt.Fprintf(status, "wrote %s\n", *svgOut)
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := nlio.WriteRoutes(f, res.Routes); err != nil {
			log.Print(err)
			return 1
		}
		if err := f.Close(); err != nil {
			log.Print(err)
			return 1
		}
		fmt.Fprintf(status, "wrote %s\n", *outFile)
	}
	if rep.VertRouteViolations > 0 || rep.ViaViolationsOffPin > 0 {
		return 1
	}
	return 0
}

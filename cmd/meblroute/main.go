// Command meblroute routes one benchmark circuit with the stitch-aware
// framework (or the conventional baseline) and prints the Table III-style
// summary row: routability, via violations, short polygons, and CPU time.
// It runs the same job as a meblserved submission: the mode, track,
// write-prep and ECO options resolve through internal/server, and -json
// prints the server's job summary.
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
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/eco"
	"stitchroute/internal/fracture"
	"stitchroute/internal/geom"
	"stitchroute/internal/harness"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/place"
	"stitchroute/internal/server"
	"stitchroute/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the -json document: the circuit, the server's job summary
// (inline, so its keys sit at the top level), and the write-prep and ECO
// blocks when they ran.
type report struct {
	Circuit string `json:"circuit"`
	Nets    int    `json:"nets"`
	Pins    int    `json:"pins"`
	*server.Summary
	WritePrep *server.WritePrep `json:"writePrep,omitempty"`
	ECO       *server.ECOView   `json:"eco,omitempty"`
}

// run holds the whole CLI body so deferred profile writers flush before
// the process exits with a nonzero status.
func run(args []string, stdout, stderr io.Writer) int {
	log := log.New(stderr, "meblroute: ", 0)
	fs := flag.NewFlagSet("meblroute", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		circuit  = fs.String("circuit", "S9234", "benchmark circuit name (see tablegen -table 1)")
		inFile   = fs.String("in", "", "route a circuit from an nlio text file instead of a benchmark")
		doPlace  = fs.Bool("place", false, "run stitch-aware placement refinement before routing")
		mode     = fs.String("mode", "stitch", "router mode: stitch or baseline")
		trk      = fs.String("track", "", "override track assignment: conventional, ilp, or graph")
		verbose  = fs.Bool("v", false, "print per-stage detail")
		outFile  = fs.String("routes", "", "write the routed geometry to this file (nlio routes format)")
		jsonOut  = fs.Bool("json", false, "print the result summary as JSON (machine-readable)")
		svgOut   = fs.String("svg", "", "write the routed layout as SVG to this file")
		checkIn  = fs.String("check", "", "skip routing: audit this routes file against the circuit (DRC and the hard invariants: shorts, connectivity, net accounting)")
		ecoFile  = fs.String("eco", "", "after routing, apply this JSON edit script ({\"edits\":[...]}) and reroute incrementally")
		ecoMode  = fs.String("eco-mode", "replay", "ECO engine: replay (byte-equal to a cold reroute) or patch (graft, fastest)")
		fracMode = fs.String("fracture", "", "run write-prep fracturing on the routed geometry: rect or lshape")
		doSten   = fs.Bool("stencil", false, "plan a CP stencil from the fractured shots (requires -fracture)")
		timeout  = fs.Duration("timeout", 0, "abort routing after this long (0 = no limit)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	req := server.JobRequest{Mode: *mode, Track: *trk, Place: *doPlace, Fracture: *fracMode, Stencil: *doSten}
	cfg, fmode, err := req.Config()
	if err != nil {
		log.Print(err)
		return 2
	}
	var engine server.ECOEngine
	var script *eco.Script
	if *ecoFile != "" {
		if engine, err = server.ECOEngineFor(*ecoMode); err != nil {
			log.Print(err)
			return 2
		}
		f, err := os.Open(*ecoFile)
		if err != nil {
			log.Print(err)
			return 1
		}
		script, err = eco.ParseScript(f)
		f.Close()
		if err != nil {
			log.Print(err)
			return 1
		}
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
	status := stdout
	if *jsonOut {
		status = stderr
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
		failed := 0
		for _, rt := range routes {
			if !rt.Routed {
				failed++
			}
		}
		cr, err := harness.CheckRoutes(c, routes, failed)
		if err != nil {
			log.Print(err)
			return 1
		}
		rep := cr.Report
		fmt.Fprintf(stdout, "Rout. %.2f%%  #VV %d (off-pin %d)  #SP %d  vert-violations %d  WL %d  vias %d\n",
			rep.Routability(), rep.ViaViolations, rep.ViaViolationsOffPin,
			rep.ShortPolygons, rep.VertRouteViolations, rep.Wirelength, rep.Vias)
		violations := cr.HardViolations()
		for _, v := range violations {
			fmt.Fprintf(stdout, "violation: %s\n", v)
		}
		if len(violations) > 0 {
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
	var ev *server.ECOView
	if engine != nil {
		coldTime := res.Times.Total()
		t0 := time.Now()
		er, err := engine(ctx, res, c, script, cfg)
		if err != nil {
			log.Print(err)
			return 1
		}
		ecoTime := time.Since(t0)
		ev = &server.ECOView{Mode: *ecoMode, EditedNets: er.Stats.EditedNets}
		ev.Record(er.Stats, ecoTime)
		fmt.Fprintf(status, "eco (%s): %d edits, %d/%d nets rerouted, %.1fms vs %.1fms cold (%.1fx)\n",
			*ecoMode, len(script.Edits), er.Stats.DetailRouted, len(er.Edited.Nets),
			float64(ecoTime.Microseconds())/1000,
			float64(coldTime.Microseconds())/1000,
			float64(coldTime)/float64(ecoTime))
		// Downstream output (-json, -routes, -svg, -fracture) describes
		// the edited circuit's routing.
		c = er.Edited
		res = er.Result
	}
	rep := res.Report
	var wp *server.WritePrep
	if *fracMode != "" {
		if wp, err = server.BuildWritePrep(ctx, res, c.Fabric.Layers, fmode, *doSten); err != nil {
			log.Print(err)
			return 1
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err := enc.Encode(report{
			Circuit: c.Name, Nets: len(c.Nets), Pins: c.NumPins(),
			Summary: server.Summarize(res), WritePrep: wp, ECO: ev,
		})
		if err != nil {
			log.Print(err)
			return 1
		}
	} else {
		fmt.Fprintf(stdout, "Rout. %.2f%%  #VV %d  #SP %d  WL %d  CPU %.2fs\n",
			rep.Routability(), rep.ViaViolations, rep.ShortPolygons, rep.Wirelength,
			res.Times.Total().Seconds())
		if wp != nil {
			fmt.Fprintf(stdout, "fracture (%s): %d shots", wp.Mode, wp.Shots)
			if fmode == fracture.ModeLShape {
				fmt.Fprintf(stdout, " (%d rect baseline, %.1f%% saved)", wp.RectShots, 100*wp.Reduction)
			}
			fmt.Fprintf(stdout, ", %d slivers\n", wp.Slivers)
			if s := wp.Stencil; s != nil {
				fmt.Fprintf(stdout, "stencil: %d characters, %d CP flashes, write time %.1f -> %.1f (%.1f%% saved)\n",
					s.Characters, s.CPFlashes, s.VSBTime, s.CPTime, 100*s.Reduction)
			}
		}
		if *verbose {
			detail := map[string]string{
				"global": fmt.Sprintf("  WL %d  TVOF %d  MVOF %d  edge-overflow %d",
					res.GlobalWL, res.TVOF, res.MVOF, res.EdgeOverflow),
				"track": fmt.Sprintf("  bad-ends %d  ripped %d  doglegs %d  fallbacks %d",
					res.TrackStats.BadEnds, res.TrackStats.Ripped, res.TrackStats.Doglegs, res.TrackStats.Fallbacks),
				"detail": fmt.Sprintf("  ripped-nets %d  failed %d  searches %d  expansions %d",
					res.RippedNets, res.FailedNets, res.DetailConnects, res.DetailExpansions),
				"drc": fmt.Sprintf("  vert-violations %d  off-pin VV %d",
					rep.VertRouteViolations, rep.ViaViolationsOffPin),
			}
			for _, st := range res.Times.Stages() {
				fmt.Fprintf(stdout, "  %-8s %8.2fs%s\n", st.Name+":", st.Time.Seconds(), detail[st.Name])
			}
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

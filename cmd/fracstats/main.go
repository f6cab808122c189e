// Command fracstats routes one benchmark circuit and reports the
// write-prep fracturing statistics in depth: both fracturing modes side
// by side, the per-layer shot breakdown, and (optionally) the CP stencil
// plan the shot library admits.
//
// Usage:
//
//	fracstats -circuit S9234 [-stencil] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/fracture"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/stencil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fracstats: ")
	os.Exit(run())
}

func run() int {
	var (
		circuit = flag.String("circuit", "S9234", "benchmark circuit name (see cmd/benchgen -list)")
		inFile  = flag.String("in", "", "fracture a circuit from an nlio text file instead of a benchmark")
		doSten  = flag.Bool("stencil", false, "also plan a CP stencil from the L-shape shot library")
		jsonOut = flag.Bool("json", false, "print the statistics as JSON (machine-readable)")
	)
	flag.Parse()

	c, err := loadCircuit(*inFile, *circuit)
	if err != nil {
		log.Print(err)
		return 1
	}
	res, err := core.Route(c, core.StitchAware())
	if err != nil {
		log.Print(err)
		return 1
	}

	rect := fracture.Fracture(res.Routes, c.Fabric.Layers, fracture.ModeRect, fracture.Options{})
	lshape := fracture.Fracture(res.Routes, c.Fabric.Layers, fracture.ModeLShape, fracture.Options{})
	hash, err := fracture.ShotsHash(lshape.Shots)
	if err != nil {
		log.Print(err)
		return 1
	}
	var plan *stencil.Plan
	if *doSten {
		plan = stencil.Build(lshape.Shots, stencil.Options{})
	}

	if *jsonOut {
		doc := map[string]any{
			"circuit":         c.Name,
			"rect":            rect,
			"lshape":          lshape,
			"lshapeShotsHash": hash,
		}
		if plan != nil {
			doc["stencil"] = plan
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			log.Print(err)
			return 1
		}
		return 0
	}

	fmt.Printf("%s: %d routed nets, %d layers\n", c.Name, res.Report.RoutedNets, c.Fabric.Layers)
	fmt.Printf("rect:   %6d shots  %4d slivers  area %d\n", rect.ShotCount, rect.Slivers, rect.Area)
	fmt.Printf("lshape: %6d shots  %4d slivers  %4d L  (%.1f%% saved, %d greedy comps, %d bnb nodes)\n",
		lshape.ShotCount, lshape.Slivers, lshape.LShots,
		100*lshape.LShapeReduction(), lshape.GreedyComponents, lshape.MatchNodes)
	fmt.Printf("lshape shots hash: %s\n", hash)
	fmt.Println("layer   rects   shots  L-shots  slivers      area")
	for _, ls := range lshape.Layers {
		fmt.Printf("%5d  %6d  %6d   %6d   %6d  %8d\n",
			ls.Layer, ls.Rects, ls.Shots, ls.LShots, ls.Slivers, ls.Area)
	}
	if plan != nil {
		fmt.Printf("stencil: %d/%d characters packed (%d dropped), %d/%d clusters as CP\n",
			len(plan.Placements), plan.Selected, plan.Dropped, plan.CPFlashes, plan.Clusters)
		fmt.Printf("write time: VSB %.1f -> CP %.1f (%.1f%% saved, shared blank %d)\n",
			plan.VSBTime, plan.CPTime, 100*plan.Reduction(), plan.SharedBlank)
	}
	return 0
}

func loadCircuit(inFile, name string) (*netlist.Circuit, error) {
	if inFile != "" {
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return nlio.Read(f)
	}
	spec, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return bench.Generate(spec), nil
}

// Quickstart: route one MCNC-style benchmark with the stitch-aware
// framework and print the Table III-style summary.
package main

import (
	"fmt"
	"log"

	"stitchroute"
)

func main() {
	spec, err := stitchroute.BenchmarkByName("S9234")
	if err != nil {
		log.Fatal(err)
	}
	circuit := stitchroute.Generate(spec)
	fmt.Printf("%s: %d nets, %d pins on a %dx%d-track fabric with %d layers\n",
		circuit.Name, len(circuit.Nets), circuit.NumPins(),
		circuit.Fabric.XTracks, circuit.Fabric.YTracks, circuit.Fabric.Layers)

	result, err := stitchroute.Route(circuit, stitchroute.StitchAware())
	if err != nil {
		log.Fatal(err)
	}
	rep := result.Report
	fmt.Printf("routability   %.2f%%\n", rep.Routability())
	fmt.Printf("short polygons %d\n", rep.ShortPolygons)
	fmt.Printf("via violations %d (all at fixed pins: off-pin = %d)\n",
		rep.ViaViolations, rep.ViaViolationsOffPin)
	fmt.Printf("vertical-routing violations %d\n", rep.VertRouteViolations)
	fmt.Printf("wirelength    %d tracks\n", rep.Wirelength)
	fmt.Printf("CPU           %.2fs (", result.Times.Total().Seconds())
	for i, st := range result.Times.Stages() {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s %.2fs", st.Name, st.Time.Seconds())
	}
	fmt.Println(")")
}

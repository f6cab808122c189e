package main

import (
	"io"
	"log"
	"time"

	"stitchroute/internal/analysis/driver"
	"stitchroute/internal/analysis/load"
	"stitchroute/internal/analysis/registry"
)

// lintReport is the top-level JSON document for -stage lint: a full
// stitchvet run over the module, timed in-process.
type lintReport struct {
	header
	Analyzers []string `json:"analyzers"`
	// Packages is the first-party package count the run analyzed;
	// Findings the unsuppressed diagnostic count (0 on a clean tree).
	Packages    int     `json:"packages"`
	Findings    int     `json:"findings"`
	ColdSeconds float64 `json:"coldSeconds"`
}

const lintMethodology = "From the module root: -runs full stitchvet runs over ./... (go list " +
	"-export, parse, type-check, every analyzer), keeping the fastest. stitchvet keeps no " +
	"findings cache, so every run is cold; Go's build cache is warm after the first."

// runLint times stitchvet over the whole module (-stage lint).
func runLint(runs int, out string) int {
	analyzers := registry.All()
	rep := lintReport{header: newHeader(runs, lintMethodology)}
	for _, a := range analyzers {
		rep.Analyzers = append(rep.Analyzers, a.Name)
	}
	patterns := []string{"./..."}
	_, metas, err := load.List(patterns...)
	if err != nil {
		log.Print(err)
		return 1
	}
	rep.Packages = len(metas)

	for i := 0; i < runs; i++ {
		start := time.Now()
		n, err := driver.Run(analyzers, patterns, io.Discard, driver.Options{})
		secs := time.Since(start).Seconds()
		if err != nil {
			log.Printf("run %d: %v", i, err)
			return 1
		}
		rep.Findings = n
		if i == 0 || secs < rep.ColdSeconds {
			rep.ColdSeconds = secs
		}
	}
	rep.ColdSeconds = round3(rep.ColdSeconds)
	return writeReport(&rep, out)
}

// Command routecheck is the end-to-end correctness soak runner: it sweeps
// the harness parameter grid across many seeds, routing every circuit
// under both the stitch-aware and baseline configurations and running the
// full invariant battery — hard DRC invariants, stitch-aware-vs-baseline
// dominance, determinism, and the translate/mirror metamorphic properties.
// It exits nonzero if any circuit violates any invariant.
//
// Usage:
//
//	routecheck [-seeds N] [-grid short|full] [-j workers] [-v]
//
// Typical soak: routecheck -seeds 25. Build with -race for a combined
// correctness+race soak: go run -race ./cmd/routecheck -seeds 5.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"stitchroute/internal/harness"
	"stitchroute/internal/netlist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("routecheck: ")
	var (
		seeds    = flag.Int("seeds", 5, "seeds per grid point")
		gridName = flag.String("grid", "full", "parameter grid: short or full")
		workers  = flag.Int("j", runtime.GOMAXPROCS(0), "concurrent circuits")
		verbose  = flag.Bool("v", false, "print every circuit, not just failures")
	)
	flag.Parse()

	var specs []harness.GenSpec
	switch *gridName {
	case "short":
		specs = harness.ShortGrid()
	case "full":
		specs = harness.FullGrid()
	default:
		log.Fatalf("unknown grid %q (want short or full)", *gridName)
	}

	type job struct{ spec harness.GenSpec }
	jobs := make(chan job)
	// A soak whose output went nowhere proves nothing: every stdout write
	// is checked (via the buffered writer's sticky error on Flush) and a
	// failed write makes the exit nonzero. stdout is shared between
	// workers and only touched under mu.
	stdout := bufio.NewWriter(os.Stdout)
	var (
		mu       sync.Mutex
		ran      int
		failed   int
		routed   int
		totalSP  [2]int // stitch, baseline
		start    = time.Now()
		failures []string
		writeErr error
	)
	var wg sync.WaitGroup
	for w := 0; w < max(*workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				spec := j.spec
				o, err := harness.Verify(spec.String(), func() *netlist.Circuit { return harness.Generate(spec) })
				mu.Lock()
				ran++
				if err != nil {
					failed++
					failures = append(failures, fmt.Sprintf("%s: %v", spec.String(), err))
					mu.Unlock()
					continue
				}
				routed += o.Stitch.Report.RoutedNets
				totalSP[0] += o.Stitch.Report.ShortPolygons
				totalSP[1] += o.Baseline.Report.ShortPolygons
				if !o.Ok() {
					failed++
					for _, v := range o.Violations {
						failures = append(failures, fmt.Sprintf("%s: %s", o.Name, v))
					}
				} else if *verbose {
					fmt.Fprintf(stdout, "ok   %-42s rout %6.2f%%  SP %d/%d  WL %d\n",
						o.Name, o.Stitch.Report.Routability(),
						o.Stitch.Report.ShortPolygons, o.Baseline.Report.ShortPolygons,
						o.Stitch.Report.Wirelength)
					if err := stdout.Flush(); err != nil && writeErr == nil {
						writeErr = err
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, base := range specs {
		for s := 0; s < *seeds; s++ {
			spec := base
			spec.Seed = int64(s + 1)
			jobs <- job{spec}
		}
	}
	close(jobs)
	wg.Wait()

	for _, f := range failures {
		if _, err := fmt.Fprintf(os.Stderr, "FAIL %s\n", f); err != nil && writeErr == nil {
			writeErr = err
		}
	}
	fmt.Fprintf(stdout, "%d circuits (%d grid points x %d seeds) in %.1fs: %d failed; %d nets routed; SP stitch/baseline %d/%d\n",
		ran, len(specs), *seeds, time.Since(start).Seconds(), failed, routed, totalSP[0], totalSP[1])
	if err := stdout.Flush(); err != nil && writeErr == nil {
		writeErr = err
	}
	if writeErr != nil {
		log.Printf("writing results: %v", writeErr)
		os.Exit(1)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// Command benchjson measures one pipeline stage on golden benchmark
// circuits and writes a machine-readable JSON report. -stage selects
// the stage:
//
//   - detail (default): the detailed-routing stage, one point per
//     circuit. BENCH_detail.json at the repository root is the
//     checked-in copy; docs/PERFORMANCE.md documents the regeneration
//     protocol, including how the seed baselines passed via -baseline
//     are measured.
//   - fracture: the write-prep fracturing stage in both modes (rect
//     and lshape) on the already-routed geometry, reporting shot
//     throughput (shots/s) and the L-shape shot-count reduction.
//     BENCH_fracture.json is the checked-in copy.
//   - eco: incremental (ECO) rerouting of representative single-net
//     edits, comparing both engines (replay, patch) against a cold
//     reroute of the edited circuit — ms/edit, ECO-vs-cold speedup,
//     and the hash-equality gate (the replay route hash must match the
//     cold rehash). BENCH_eco.json is the checked-in copy.
//   - lint: a full stitchvet run over the whole module, best of -runs,
//     with the analyzer set, package count and findings.
//     BENCH_lint.json is the checked-in copy. Run it from the module
//     root.
//
// Every measured point runs -runs times and keeps the fastest wall
// time (best-of-N absorbs scheduler noise on shared machines). The
// report fails unless every run produced byte-identical output —
// routed geometry for detail, canonical shot lists for fracture — so
// the numbers can never come from divergent results.
//
// Usage:
//
//	benchjson [-stage detail|fracture|eco|lint] [-circuits Primary1,S5378,S9234]
//	          [-runs 5]
//	          [-baseline Primary1=0.18,S5378=0.63,S9234=0.55] [-baseline-note ...]
//	          [-out BENCH_detail.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/fracture"
	"stitchroute/internal/nlio"
)

// report is the top-level JSON document.
type report struct {
	Generated string `json:"generated"`
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU and GOMAXPROCS are the host provenance: a time is only
	// comparable to one taken on the same cores.
	NumCPU       int             `json:"numCPU"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	RunsPerPoint int             `json:"runsPerPoint"`
	Methodology  string          `json:"methodology"`
	BaselineNote string          `json:"baselineNote,omitempty"`
	Circuits     []circuitReport `json:"circuits"`
}

// circuitReport is one circuit's point: the run with the fastest detail
// stage.
type circuitReport struct {
	Circuit          string  `json:"circuit"`
	Nets             int     `json:"nets"`
	RoutesHash       string  `json:"routesHash"`
	DetailSeconds    float64 `json:"detailSeconds"`
	TotalSeconds     float64 `json:"totalSeconds"`
	DetailConnects   int     `json:"detailConnects"`
	DetailExpansions int64   `json:"detailExpansions"`
	FailedNets       int     `json:"failedNets"`
	// ExpansionsPerSecond is detailExpansions over the best detail wall
	// time.
	ExpansionsPerSecond float64 `json:"expansionsPerSecond"`
	// SeedDetailSeconds is the externally measured seed-binary baseline
	// (see BaselineNote); SpeedupVsSeed divides it by detailSeconds.
	// Present only when -baseline names this circuit.
	SeedDetailSeconds float64 `json:"seedDetailSeconds,omitempty"`
	SpeedupVsSeed     float64 `json:"speedupVsSeed,omitempty"`
}

// fractureReport is the top-level JSON document for -stage fracture.
type fractureReport struct {
	Generated    string            `json:"generated"`
	GoVersion    string            `json:"goVersion"`
	GOOS         string            `json:"goos"`
	GOARCH       string            `json:"goarch"`
	NumCPU       int               `json:"numCPU"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	RunsPerPoint int               `json:"runsPerPoint"`
	Methodology  string            `json:"methodology"`
	Circuits     []fractureCircuit `json:"circuits"`
}

type fractureCircuit struct {
	Circuit    string `json:"circuit"`
	Nets       int    `json:"nets"`
	RoutesHash string `json:"routesHash"`
	// ShotsHash is the canonical hash of the L-shape shot list; every
	// timed repetition must reproduce it.
	ShotsHash   string `json:"shotsHash"`
	RectShots   int    `json:"rectShots"`
	LShapeShots int    `json:"lshapeShots"`
	// LShapeReduction is 1 − lshapeShots/rectShots: the fraction of VSB
	// shots the L-shape mode removes.
	LShapeReduction float64         `json:"lshapeReduction"`
	Points          []fracturePoint `json:"points"`
}

type fracturePoint struct {
	Mode            string  `json:"mode"`
	Shots           int     `json:"shots"`
	FractureSeconds float64 `json:"fractureSeconds"`
	ShotsPerSecond  float64 `json:"shotsPerSecond"`
}

const methodology = "Per circuit: the full stitch-aware router runs -runs times on a freshly " +
	"generated circuit and the run with the fastest detail-stage wall time is kept " +
	"(best-of-N). All runs of a circuit must produce byte-identical routed geometry " +
	"(routesHash) or the report fails. The detailed router is sequential, so the " +
	"times depend on single-core speed, not on numCPU."

const fractureMethodology = "Per circuit: the stitch-aware router produces routed geometry once " +
	"(untimed), then each fracturing mode (rect, lshape) runs -runs times on that geometry " +
	"and the fastest wall time is kept (best-of-N). Every repetition must produce the " +
	"byte-identical canonical shot list (shotsHash checked per mode) or the report fails. " +
	"shotsPerSecond divides the mode's emitted shot count by its best wall time; " +
	"lshapeReduction is the fraction of VSB shots the L-shape pairing removes versus " +
	"the rectangle baseline."

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	os.Exit(run())
}

func run() int {
	var (
		stage        = flag.String("stage", "detail", "pipeline stage to measure: detail, fracture, eco, or lint")
		circuitsFlag = flag.String("circuits", "Primary1,S5378,S9234", "comma-separated benchmark circuits")
		runs         = flag.Int("runs", 5, "runs per measured point; fastest is kept")
		baselineFlag = flag.String("baseline", "", "comma-separated name=seconds seed detail baselines (detail stage)")
		baselineNote = flag.String("baseline-note", "", "provenance of the -baseline numbers, recorded verbatim")
		out          = flag.String("out", "-", "output file (- = stdout)")
	)
	flag.Parse()
	if *runs < 1 {
		log.Printf("runs must be >= 1, got %d", *runs)
		return 2
	}
	switch *stage {
	case "detail":
	case "fracture":
		return runFracture(*circuitsFlag, *runs, *out)
	case "eco":
		return runECO(*circuitsFlag, *runs, *out)
	case "lint":
		return runLint(*runs, *out)
	default:
		log.Printf("unknown -stage %q (want detail, fracture, eco, or lint)", *stage)
		return 2
	}

	baselines, err := parseBaselines(*baselineFlag)
	if err != nil {
		log.Print(err)
		return 2
	}

	rep := report{
		Generated:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		RunsPerPoint: *runs,
		Methodology:  methodology,
		BaselineNote: *baselineNote,
	}

	for _, name := range strings.Split(*circuitsFlag, ",") {
		name = strings.TrimSpace(name)
		cr, err := measureCircuit(name, *runs)
		if err != nil {
			log.Print(err)
			return 1
		}
		if secs, ok := baselines[name]; ok {
			cr.SeedDetailSeconds = secs
			cr.SpeedupVsSeed = round3(secs / cr.DetailSeconds)
		}
		rep.Circuits = append(rep.Circuits, *cr)
		log.Printf("%s done", name)
	}

	return writeReport(&rep, *out)
}

// writeReport marshals the report and writes it to out ("-" = stdout).
func writeReport(rep any, out string) int {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Print(err)
		return 1
	}
	buf = append(buf, '\n')
	if out == "-" {
		// A report nobody received is a failed run: a broken pipe or a
		// full disk downstream must surface as a nonzero exit, not as a
		// silently truncated JSON document.
		if _, err := os.Stdout.Write(buf); err != nil {
			log.Print(err)
			return 1
		}
		return 0
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("wrote %s", out)
	return 0
}

// runFracture measures the write-prep fracturing stage (-stage fracture).
func runFracture(circuitsFlag string, runs int, out string) int {
	rep := fractureReport{
		Generated:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		RunsPerPoint: runs,
		Methodology:  fractureMethodology,
	}
	for _, name := range strings.Split(circuitsFlag, ",") {
		name = strings.TrimSpace(name)
		fc, err := measureFracture(name, runs)
		if err != nil {
			log.Print(err)
			return 1
		}
		rep.Circuits = append(rep.Circuits, *fc)
		log.Printf("%s done", name)
	}
	return writeReport(&rep, out)
}

// measureFracture routes the named circuit once, then times both
// fracturing modes best-of-N on the routed geometry, verifying every
// repetition reproduces the identical canonical shot list.
func measureFracture(name string, runs int) (*fractureCircuit, error) {
	spec, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	c := bench.Generate(spec)
	res, err := core.Route(c, core.StitchAware())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	fc := &fractureCircuit{Circuit: name, Nets: len(c.Nets)}
	if fc.RoutesHash, err = nlio.RoutesHash(res.Routes); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, mode := range []fracture.Mode{fracture.ModeRect, fracture.ModeLShape} {
		// One untimed warm-up so the first measured repetition does not
		// pay for heap growth.
		warm := fracture.Fracture(res.Routes, c.Fabric.Layers, mode, fracture.Options{})
		hash, err := fracture.ShotsHash(warm.Shots)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, mode, err)
		}
		p := fracturePoint{Mode: mode.String(), Shots: warm.ShotCount}
		for i := 0; i < runs; i++ {
			start := time.Now()
			fr := fracture.Fracture(res.Routes, c.Fabric.Layers, mode, fracture.Options{})
			secs := time.Since(start).Seconds()
			h, err := fracture.ShotsHash(fr.Shots)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, mode, err)
			}
			if h != hash {
				return nil, fmt.Errorf("%s/%s run %d: shots hash %s differs from %s",
					name, mode, i, h, hash)
			}
			if i == 0 || secs < p.FractureSeconds {
				p.FractureSeconds = secs
			}
		}
		if p.FractureSeconds > 0 {
			p.ShotsPerSecond = round3(float64(p.Shots) / p.FractureSeconds)
		}
		p.FractureSeconds = round3(p.FractureSeconds)
		switch mode {
		case fracture.ModeRect:
			fc.RectShots = p.Shots
		case fracture.ModeLShape:
			fc.LShapeShots = p.Shots
			fc.ShotsHash = hash
		}
		fc.Points = append(fc.Points, p)
	}
	if fc.RectShots > 0 {
		fc.LShapeReduction = round3(1 - float64(fc.LShapeShots)/float64(fc.RectShots))
	}
	return fc, nil
}

// measureCircuit routes the named circuit runs times, checks that every
// run routed identical geometry, and keeps the run with the fastest
// detail stage.
func measureCircuit(name string, runs int) (*circuitReport, error) {
	spec, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	// One untimed warm-up route so the first measured run does not pay
	// for heap growth and page faults.
	if _, err := core.Route(bench.Generate(spec), core.StitchAware()); err != nil {
		return nil, fmt.Errorf("%s warmup: %w", name, err)
	}
	var best *circuitReport
	for i := 0; i < runs; i++ {
		c := bench.Generate(spec)
		res, err := core.Route(c, core.StitchAware())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		hash, err := nlio.RoutesHash(res.Routes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if best != nil && hash != best.RoutesHash {
			return nil, fmt.Errorf("%s run %d: routes hash %s differs from %s", name, i, hash, best.RoutesHash)
		}
		if best == nil || res.Times.Detail.Seconds() < best.DetailSeconds {
			best = &circuitReport{
				Circuit:          name,
				Nets:             len(c.Nets),
				RoutesHash:       hash,
				DetailSeconds:    res.Times.Detail.Seconds(),
				TotalSeconds:     res.Times.Total().Seconds(),
				DetailConnects:   res.DetailConnects,
				DetailExpansions: res.DetailExpansions,
				FailedNets:       res.FailedNets,
			}
		}
	}
	if best.DetailSeconds > 0 {
		best.ExpansionsPerSecond = round3(float64(best.DetailExpansions) / best.DetailSeconds)
	}
	best.DetailSeconds = round3(best.DetailSeconds)
	best.TotalSeconds = round3(best.TotalSeconds)
	return best, nil
}

// parseBaselines parses "name=seconds,name=seconds".
func parseBaselines(s string) (map[string]float64, error) {
	out := map[string]float64{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -baseline entry %q (want name=seconds)", part)
		}
		secs, err := strconv.ParseFloat(val, 64)
		if err != nil || secs <= 0 {
			return nil, fmt.Errorf("bad -baseline seconds in %q", part)
		}
		out[name] = secs
	}
	return out, nil
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}

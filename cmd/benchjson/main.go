// Command benchjson measures the routing pipeline stage by stage on
// benchmark circuits and writes a machine-readable JSON report with one
// record per circuit covering every stage. The circuit is routed -runs
// times and each routing stage (global, layer, track, detail, drc;
// core.StageTimes) keeps its fastest time. Rect and L-shape fracturing
// and the stencil plan are timed on those routes, and five single-pin
// edits are rerouted cold, by ECO replay and by ECO patch.
// BENCH_pipeline.json at the repository root is the checked-in copy;
// docs/PERFORMANCE.md documents it.
//
// Every time is the fastest of -runs repetitions (best-of-N absorbs
// scheduler noise on shared machines), and the report fails unless the
// repetitions agree: identical routes hashes, identical shot and plan
// hashes, replay hashes equal to the cold rehash, and reproducible patch
// hashes. So no number can come from divergent results.
//
// Usage:
//
//	benchjson [-circuits Primary1,S5378,S9234,S38417] [-runs 5]
//	          [-out BENCH_pipeline.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/fracture"
	"stitchroute/internal/harness"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/stencil"
)

// report is the BENCH_pipeline.json document: host provenance, then
// one record per circuit.
type report struct {
	Generated string `json:"generated"`
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU and GOMAXPROCS are the host provenance: a time is only
	// comparable to one taken on the same cores.
	NumCPU       int      `json:"numCPU"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	RunsPerPoint int      `json:"runsPerPoint"`
	Methodology  string   `json:"methodology"`
	Circuits     []record `json:"circuits"`
}

// record is one circuit measured through every stage: the routed
// result's quality record (inline) and routes hash, then the stage times.
type record struct {
	Circuit    string `json:"circuit"`
	Nets       int    `json:"nets"`
	RoutesHash string `json:"routesHash"`
	core.Quality
	DetailExpansions int64 `json:"detailExpansions"`
	// StageMs is each stage's wall time in milliseconds, in pipeline
	// order: the routing stages under core.StageTimes' names, then
	// fractureRect, fractureLShape and stencil, then ecoCold, ecoReplay
	// and ecoPatch (the mean over the edits of each edit's best time).
	StageMs []stageTime `json:"stageMs"`
	// WritePrep is the write-prep snapshot of the routes, in the format
	// of the harness fracture golden; every timed repetition reproduces
	// its shot and plan hashes.
	WritePrep harness.FractureMetrics `json:"writePrep"`
	ECO       ecoRecord               `json:"eco"`
}

type stageTime struct {
	Stage string  `json:"stage"`
	Ms    float64 `json:"ms"`
}

// keep records d under stage, keeping the fastest time seen.
func keep(stages []stageTime, stage string, d time.Duration) []stageTime {
	ms := round3(float64(d.Nanoseconds()) / 1e6)
	for i := range stages {
		if stages[i].Stage == stage {
			stages[i].Ms = min(stages[i].Ms, ms)
			return stages
		}
	}
	return append(stages, stageTime{stage, ms})
}

const methodology = "Per circuit: the stitch-aware router runs -runs times on a freshly generated " +
	"circuit and each routing stage keeps its fastest wall time; every run must produce the " +
	"same routesHash. Rect and L-shape fracturing and the stencil plan then run -runs times on " +
	"those routes, fastest kept, each repetition reproducing writePrep (counts, shot and plan hashes). " +
	"Last, five single-net edits (one pin moved to the nearest free cell) are each rerouted " +
	"-runs times three ways, fastest kept: cold (full pipeline on the edited circuit), eco " +
	"replay and eco patch off the routed parent. Every replay hash must equal the cold rehash " +
	"(replayHashEqual) and every patch run must reproduce its hash (patchDeterministic); any " +
	"gate failure aborts the report. The eco stage times average the per-edit bests, and the " +
	"speedups divide the cold mean by the engine mean. The detailed router is sequential, so " +
	"routing times depend on single-core speed, not on numCPU."

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	os.Exit(run())
}

func run() int {
	var (
		circuitsFlag = flag.String("circuits", "Primary1,S5378,S9234,S38417", "comma-separated benchmark circuits")
		runs         = flag.Int("runs", 5, "runs per measured point; fastest is kept")
		out          = flag.String("out", "-", "output file (- = stdout)")
	)
	flag.Parse()
	if *runs < 1 {
		log.Printf("runs must be >= 1, got %d", *runs)
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
	}
	for _, name := range strings.Split(*circuitsFlag, ",") {
		rec, err := measure(strings.TrimSpace(name), *runs)
		if err != nil {
			log.Print(err)
			return 1
		}
		rep.Circuits = append(rep.Circuits, *rec)
		log.Printf("%s done: %v, replay %.1fx, patch %.1fx",
			rec.Circuit, rec.StageMs, rec.ECO.ReplaySpeedup, rec.ECO.PatchSpeedup)
	}
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		log.Print(err)
		return 1
	}
	buf = append(buf, '\n')
	if *out == "-" {
		// A report nobody received is a failed run: a broken pipe or a
		// full disk downstream must surface as a nonzero exit, not as a
		// silently truncated JSON document.
		if _, err := os.Stdout.Write(buf); err != nil {
			log.Print(err)
			return 1
		}
		return 0
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("wrote %s", *out)
	return 0
}

// measure produces the named circuit's record: routing, write-prep and
// ECO, in that order, each gated on reproducible hashes.
func measure(name string, runs int) (*record, error) {
	spec, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	var (
		rec    = &record{Circuit: name}
		c      *netlist.Circuit
		parent *core.Result
	)
	for i := range runs {
		c = bench.Generate(spec)
		if parent, err = core.Route(c, core.StitchAware()); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		hash, err := nlio.RoutesHash(parent.Routes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if i > 0 && hash != rec.RoutesHash {
			return nil, fmt.Errorf("%s run %d: routes hash %.12s differs from %.12s", name, i, hash, rec.RoutesHash)
		}
		rec.RoutesHash = hash
		for _, st := range parent.Times.Stages() {
			rec.StageMs = keep(rec.StageMs, st.Name, st.Time)
		}
	}
	rec.Nets, rec.Quality, rec.DetailExpansions = len(c.Nets), parent.Quality(), parent.DetailExpansions

	if err := measureWritePrep(rec, c, parent, runs); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := measureECO(rec, c, parent, runs); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return rec, nil
}

// measureWritePrep times rect fracturing, L-shape fracturing and the
// stencil plan on the routed circuit. Every repetition must reproduce
// the first one's write-prep metrics, rec.WritePrep, field for field.
func measureWritePrep(rec *record, c *netlist.Circuit, res *core.Result, runs int) error {
	for i := range runs {
		t0 := time.Now()
		rect := fracture.Fracture(res.Routes, c.Fabric.Layers, fracture.ModeRect, fracture.Options{})
		t1 := time.Now()
		ls := fracture.Fracture(res.Routes, c.Fabric.Layers, fracture.ModeLShape, fracture.Options{})
		t2 := time.Now()
		pl := stencil.Build(ls.Shots, stencil.Options{})
		t3 := time.Now()
		rec.StageMs = keep(rec.StageMs, "fractureRect", t1.Sub(t0))
		rec.StageMs = keep(rec.StageMs, "fractureLShape", t2.Sub(t1))
		rec.StageMs = keep(rec.StageMs, "stencil", t3.Sub(t2))

		wp, err := harness.WritePrepMetrics(c.Name, rect, ls, pl)
		if err != nil {
			return err
		}
		if i == 0 {
			rec.WritePrep = wp
		} else if bad := harness.Compare(wp, rec.WritePrep); len(bad) > 0 {
			return fmt.Errorf("write-prep run %d differs from run 0: %s", i, strings.Join(bad, "; "))
		}
	}
	return nil
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV). Each TableN function runs the corresponding experiment
// and returns typed rows; the Fprint helpers render them in the paper's
// layout. cmd/tablegen and the repository's bench_test.go are thin
// wrappers around this package.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/detail"
	"stitchroute/internal/global"
	"stitchroute/internal/netlist"
	"stitchroute/internal/track"
)

// HardCircuits are the six "hard" MCNC benchmarks of Table IV (the ones
// with nonzero vertex overflow in the stitch-oblivious arm).
func HardCircuits() []string {
	return []string{"S5378", "S9234", "S13207", "S15850", "S38417", "S38584"}
}

// AllCircuits returns every benchmark name, Tables I+II order.
func AllCircuits() []string {
	var out []string
	for _, s := range bench.All() {
		out = append(out, s.Name)
	}
	return out
}

// SmallCircuits is a fast subset used by default in cmd/tablegen and the
// Go benchmarks (the full set is minutes of CPU).
func SmallCircuits() []string {
	return []string{"Struct", "Primary1", "S5378", "S9234"}
}

// ---------------------------------------------------------------------
// Tables I and II: benchmark statistics.

// FprintTable12 prints the circuit statistics of Table I (MCNC) or
// Table II (Faraday), including the synthetic grid actually generated.
func FprintTable12(w io.Writer, specs []bench.Spec) {
	fmt.Fprintf(w, "%-10s %14s %8s %7s %7s %12s\n", "Circuit", "Size (um^2)", "#Layers", "#Nets", "#Pins", "Grid (trk)")
	for _, s := range specs {
		x, y := s.GridSize()
		fmt.Fprintf(w, "%-10s %6.1fx%-7.1f %8d %7d %7d %5dx%-6d\n",
			s.Name, s.MicronW, s.MicronH, s.Layers, s.Nets, s.Pins, x, y)
	}
}

// ---------------------------------------------------------------------
// Table III: full framework vs baseline router.

// RouteSummary is one router's result on one circuit: its quality record
// and the run's summed stage time.
type RouteSummary struct {
	core.Quality
	CPU time.Duration
}

func summarize(res *core.Result) RouteSummary {
	return RouteSummary{res.Quality(), res.Times.Total()}
}

// Table3Row compares the baseline and stitch-aware routers on one circuit.
type Table3Row struct {
	Circuit        string
	Baseline, Ours RouteSummary
}

// Table3 runs both full flows on the named circuits. Circuits run in
// parallel (each circuit's own two arms run serially, so its CPU column
// stays meaningful).
func Table3(circuits []string) ([]Table3Row, error) {
	rows := make([]Table3Row, len(circuits))
	err := forEachCircuit(circuits, func(i int, name string) error {
		arms, err := routeArms(name, core.Baseline(), core.StitchAware())
		if err == nil {
			rows[i] = Table3Row{name, arms[0], arms[1]}
		}
		return err
	})
	return rows, err
}

// forEachCircuit runs fn over the circuits with bounded parallelism,
// preserving order via the index. If several calls fail, the error of
// the earliest circuit in the list is returned, whatever order they
// finished in.
func forEachCircuit(circuits []string, fn func(i int, name string) error) error {
	par := runtime.GOMAXPROCS(0)
	if par > 4 {
		par = 4 // whole-circuit runs are memory-hungry; cap the fan-out
	}
	sem := make(chan struct{}, par)
	errs := make([]error, len(circuits))
	var wg sync.WaitGroup
	for i, name := range circuits {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i, name)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// routeArms routes the named circuit under each config in turn, each on
// a freshly generated copy, and summarizes the runs in config order.
func routeArms(name string, cfgs ...core.Config) ([]RouteSummary, error) {
	arms := make([]RouteSummary, len(cfgs))
	for i, cfg := range cfgs {
		_, res, err := RouteCircuit(name, cfg)
		if err != nil {
			return nil, err
		}
		arms[i] = summarize(res)
	}
	return arms, nil
}

// FprintTable3 renders Table III with the paper's comparison row.
func FprintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "%-10s | %9s %6s %6s %8s | %9s %6s %6s %8s\n",
		"Circuit", "BaseRout%", "#VV", "#SP", "CPU(s)", "OursRout%", "#VV", "#SP", "CPU(s)")
	var bSP, oSP int
	var bCPU, oCPU time.Duration
	var bR, oR float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %9.2f %6d %6d %8.2f | %9.2f %6d %6d %8.2f\n",
			r.Circuit, r.Baseline.Routability, r.Baseline.ViaViolations, r.Baseline.ShortPolygons, r.Baseline.CPU.Seconds(),
			r.Ours.Routability, r.Ours.ViaViolations, r.Ours.ShortPolygons, r.Ours.CPU.Seconds())
		bSP += r.Baseline.ShortPolygons
		oSP += r.Ours.ShortPolygons
		bCPU += r.Baseline.CPU
		oCPU += r.Ours.CPU
		bR += r.Baseline.Routability
		oR += r.Ours.Routability
	}
	n := float64(len(rows))
	if n == 0 {
		return
	}
	spRatio := ratio(float64(oSP), float64(bSP))
	fmt.Fprintf(w, "%-10s | %9.3f %6s %6.3f %8.2f | %9.3f %6s %6.3f %8.2f\n",
		"Comp.", 1.0, "-", 1.0, 1.0,
		oR/bR, "-", spRatio, ratio(oCPU.Seconds(), bCPU.Seconds()))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---------------------------------------------------------------------
// Table IV: global routing with and without line-end consideration.

// Table4Row reports one circuit's global-routing quality in both arms.
type Table4Row struct {
	Circuit       string
	Without, With GlobalSummary
}

// GlobalSummary is one global-routing arm's metrics.
type GlobalSummary struct {
	TVOF, MVOF int
	WL         int
	CPU        time.Duration
}

// Table4 runs the stitch-aware global router with and without the
// line-end (vertex) cost on the named circuits. Only the global stage
// runs, as in the paper.
func Table4(circuits []string) ([]Table4Row, error) {
	var rows []Table4Row
	for _, name := range circuits {
		spec, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		row := Table4Row{Circuit: name}
		for i, cfg := range []global.Config{global.EdgeOnly(), global.StitchAware()} {
			c := bench.Generate(spec)
			t0 := time.Now()
			r := global.NewRouter(c.Fabric, cfg)
			plans := r.RouteAll(c)
			r.Refine(c, plans, core.StitchAware().RefinePasses)
			elapsed := time.Since(t0)
			tv, mv := r.Overflow()
			gs := GlobalSummary{TVOF: tv, MVOF: mv, WL: r.Wirelength(), CPU: elapsed}
			if i == 0 {
				row.Without = gs
			} else {
				row.With = gs
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintTable4 renders Table IV.
func FprintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "%-10s | %6s %6s %9s %8s | %6s %6s %9s %8s\n",
		"Circuit", "TVOF", "MVOF", "WL", "CPU(s)", "TVOF", "MVOF", "WL", "CPU(s)")
	fmt.Fprintf(w, "%-10s | %32s | %32s\n", "", "w/o line-end consideration", "w/ line-end consideration")
	var aT, bT, aWL, bWL int
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %6d %6d %9d %8.3f | %6d %6d %9d %8.3f\n",
			r.Circuit, r.Without.TVOF, r.Without.MVOF, r.Without.WL, r.Without.CPU.Seconds(),
			r.With.TVOF, r.With.MVOF, r.With.WL, r.With.CPU.Seconds())
		aT += r.Without.TVOF
		bT += r.With.TVOF
		aWL += r.Without.WL
		bWL += r.With.WL
	}
	fmt.Fprintf(w, "%-10s | TVOF ratio %.3f, WL ratio %.3f\n", "Comp.",
		ratio(float64(bT), float64(aT)), ratio(float64(bWL), float64(aWL)))
}

// ---------------------------------------------------------------------
// Table VII: track assignment algorithm comparison.

// Table7Row compares the three track-assignment algorithms on a circuit.
// The ILP summary is zero-valued (Skipped=true) for circuits where the
// exact search exceeds its budget, mirroring the paper's "NA" entries.
// Each summary's BadEnds isolates its algorithm's own contribution: the
// stitch-aware detailed router recovers most bad ends downstream (so
// the #SP contrast concentrates in Table III/VIII here), but the bad
// ends the track stage leaves behind are its direct quality measure.
type Table7Row struct {
	Circuit          string
	Conv, ILP, Graph RouteSummary
	ILPSkipped       bool
}

// ILPSkip lists circuits the paper could not finish with CPLEX in 10^5
// seconds; we skip the same ones.
func ILPSkip() map[string]bool {
	return map[string]bool{"S38417": true, "S38584": true}
}

// Table7 runs the full flow with each track-assignment algorithm (other
// stages stitch-aware, as in the paper's controlled comparison). Circuits
// run in parallel.
func Table7(circuits []string) ([]Table7Row, error) {
	skip := ILPSkip()
	rows := make([]Table7Row, len(circuits))
	err := forEachCircuit(circuits, func(i int, name string) error {
		conv, ilp, graph := core.StitchAware(), core.StitchAware(), core.StitchAware()
		conv.TrackAlgo, ilp.TrackAlgo, graph.TrackAlgo = track.Conventional, track.ILPBased, track.GraphBased
		cfgs := []core.Config{conv, ilp, graph}
		if skip[name] {
			cfgs = []core.Config{conv, graph}
		}
		arms, err := routeArms(name, cfgs...)
		if err != nil {
			return err
		}
		rows[i] = Table7Row{Circuit: name, Conv: arms[0], Graph: arms[len(arms)-1], ILPSkipped: skip[name]}
		if !skip[name] {
			rows[i].ILP = arms[1]
		}
		return nil
	})
	return rows, err
}

// FprintTable7 renders Table VII. #BE is the bad ends the track stage
// itself leaves (the downstream stitch-aware detailed router then recovers
// most of them, which is why #SP stays low even in the conventional arm).
func FprintTable7(w io.Writer, rows []Table7Row) {
	fmt.Fprintf(w, "%-10s | %27s | %27s | %27s\n", "Circuit",
		"w/o stitch (conv.)", "ILP-based", "graph-based")
	fmt.Fprintf(w, "%-10s | %7s %5s %5s %7s | %7s %5s %5s %7s | %7s %5s %5s %7s\n", "",
		"Rout%", "#BE", "#SP", "CPU(s)", "Rout%", "#BE", "#SP", "CPU(s)", "Rout%", "#BE", "#SP", "CPU(s)")
	cell := func(s RouteSummary) string {
		return fmt.Sprintf("%7.2f %5d %5d %7.1f", s.Routability, s.BadEnds, s.ShortPolygons, s.CPU.Seconds())
	}
	for _, r := range rows {
		ilpCell := cell(r.ILP)
		if r.ILPSkipped {
			ilpCell = fmt.Sprintf("%7s %5s %5s %7s", "NA", "NA", "NA", ">budget")
		}
		fmt.Fprintf(w, "%-10s | %s | %s | %s\n", r.Circuit, cell(r.Conv), ilpCell, cell(r.Graph))
	}
}

// ---------------------------------------------------------------------
// Table VIII: detailed routing with and without stitch consideration.

// Table8Row compares conventional vs stitch-aware detailed routing, both
// on graph-based track assignment.
type Table8Row struct {
	Circuit       string
	Without, With RouteSummary
}

// Table8 runs the flow with the stitch-aware front-end (global, layer,
// graph-based track assignment) and toggles only the detailed router.
// Circuits run in parallel.
func Table8(circuits []string) ([]Table8Row, error) {
	rows := make([]Table8Row, len(circuits))
	err := forEachCircuit(circuits, func(i int, name string) error {
		without := core.StitchAware()
		without.Detail = detail.DefaultConfig(false)
		arms, err := routeArms(name, without, core.StitchAware())
		if err == nil {
			rows[i] = Table8Row{name, arms[0], arms[1]}
		}
		return err
	})
	return rows, err
}

// FprintTable8 renders Table VIII.
func FprintTable8(w io.Writer, rows []Table8Row) {
	fmt.Fprintf(w, "%-10s | %23s | %23s\n", "Circuit", "w/o stitch consideration", "w/ stitch consideration")
	fmt.Fprintf(w, "%-10s | %8s %6s %8s | %8s %6s %8s\n", "",
		"Rout%", "#SP", "CPU(s)", "Rout%", "#SP", "CPU(s)")
	var aSP, bSP int
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %8.2f %6d %8.2f | %8.2f %6d %8.2f\n",
			r.Circuit, r.Without.Routability, r.Without.ShortPolygons, r.Without.CPU.Seconds(),
			r.With.Routability, r.With.ShortPolygons, r.With.CPU.Seconds())
		aSP += r.Without.ShortPolygons
		bSP += r.With.ShortPolygons
	}
	fmt.Fprintf(w, "%-10s | #SP ratio %.3f\n", "Comp.", ratio(float64(bSP), float64(aSP)))
}

// RouteCircuit is a convenience used by the figure generators and
// examples: generate and route one named circuit.
func RouteCircuit(name string, cfg core.Config) (*netlist.Circuit, *core.Result, error) {
	spec, err := bench.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	c := bench.Generate(spec)
	res, err := core.Route(c, cfg)
	return c, res, err
}

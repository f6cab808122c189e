// Command meblbench is the end-to-end benchmark of the stitch-aware
// router. It runs one workload per process and prints one line per
// metric ("workload metric value unit"), then a JSON summary as the last
// line of standard output:
//
//	cd benchmark && go run . -seed 0                       # all workloads, each in a child process
//	cd benchmark && go run . -workload eco-patch -seed 7 -trace 1
//	bash benchmark/run.sh --workload chip-cold --seed 3 --seconds 10 --trace 0
//
// The seed is the only input: the edit scripts, request mixes and upload
// seed offsets are derived from it, while the chips, the ECO parent and
// the write-prep geometry are the canonical benchmark circuits (see
// README.md for why). Every op's output is checked; a failed check
// counts the op as failed and the command exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"stitchroute/internal/detail"
)

// workloads in the order the all-workload mode runs them.
var workloads = []workload{
	{"chip-cold", setupChip},
	{"eco-patch", setupECO},
	{"service-mix", setupService},
	{"writeprep", setupWritePrep},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs the command and returns its exit code: 0 when every op passed
// its checks, 1 when any failed or the run could not complete, 2 on a
// usage error.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("meblbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run in this process; empty runs every workload, each in a child process")
	seed := fs.Int64("seed", 0, "workload seed (0 = the canonical benchmark inputs)")
	seconds := fs.Int("seconds", 10, "timed seconds per workload; whole passes run until they are reached")
	trace := fs.Int("trace", 0, "1 traces every other pass and reports per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "meblbench: -trace takes 0 or 1, -seconds a non-negative count, and no arguments follow the flags")
		return 2
	}
	if *name == "" {
		return runAll(args, stdout, stderr)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "meblbench: unknown workload %q\n", *name)
		return 2
	}
	o, err := run(context.Background(), w, fullSizes, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "meblbench:", err)
		return 1
	}
	if *trace == 1 && *spans != "" {
		if err := o.rec.write(*spans); err != nil {
			fmt.Fprintln(stderr, "meblbench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	return report(stdout, stderr, w.name, o, *trace == 1)
}

// runAll re-executes this binary once per workload, so each workload's
// memory metrics are its own.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "meblbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "meblbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// report prints the run's metrics and the JSON summary line, and returns
// the exit code.
func report(stdout, stderr io.Writer, name string, o *outcome, traced bool) int {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(stdout, "# host numCPU=%d GOMAXPROCS=%d detailWorkers=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), detail.ResolveWorkers(0), runtime.Version(), commit)

	attempted, errs := o.failures()
	for _, err := range errs {
		fmt.Fprintf(stderr, "meblbench: %s: op failed: %v\n", name, err)
	}
	e2e, n, p90ok := o.endToEnd()
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.name] = d.unit
	}
	line := func(metric string, v float64, unit string) {
		fmt.Fprintf(stdout, "%s %s %s %s\n", name, metric, strconv.FormatFloat(v, 'f', -1, 64), unit)
	}
	for _, d := range endToEnd {
		line(d.name, e2e[d.name], d.unit)
	}
	if !p90ok {
		fmt.Fprintf(stdout, "# op_p90_ms rests on %d ops, fewer than %d beyond it\n", n, minBeyond)
	}
	line("ops", float64(n), "count")
	line("op_iqr_frac", e2e["op_iqr_frac"], "ratio")
	line("failed_frac", ratio(float64(len(errs)), float64(attempted)), "ratio")
	counts, _ := o.firstPass(false)
	for _, q := range quality {
		line(q, counts[q], units[q])
	}

	out := e2e
	defs := endToEnd
	if traced {
		out = o.perLayer()
		defs = perLayer
		names := make([]string, 0, len(out))
		for k := range out {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			line(k, out[k], units[k])
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(errs) == 0, attempted, len(errs), map[string]value{}}
	for _, d := range defs {
		summary.Metrics[d.name] = value{out[d.name], d.unit}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "meblbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if len(errs) > 0 {
		return 1
	}
	return 0
}

package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// Each workload builds its inputs at least setupRuns times and for at
// least setupTime; setup_s is the median, so one slow set-up does not
// move it and a cheap set-up is sampled often.
const (
	setupRuns = 3
	setupTime = time.Second
)

// opResult is one op's latency and its checked output.
type opResult struct {
	pass   int
	traced bool
	lat    time.Duration
	// slot is the op's 1-based place in an op list every pass repeats,
	// or 0 for an op that runs once.
	slot int
	// key names the op's input: ops with equal keys must produce equal
	// hashes (determinism). err is set when any check failed.
	key, hash string
	err       error
	// counts are summed over a pass; samples (per-layer timings in the
	// metric's unit) are reported as a median over ops.
	counts  map[string]float64
	samples map[string]float64
}

// passOut is one pass over a workload's op list.
type passOut struct {
	ops []opResult
	// wall is the timed time of the pass and alloc the bytes allocated
	// in it; checks between ops are outside both.
	wall   time.Duration
	alloc  uint64
	counts map[string]float64
}

// instance is a workload whose inputs are set up. pass runs op list
// pass i (traced when rec is non-nil); close releases what setup built.
type instance interface {
	pass(ctx context.Context, i int, rec *recorder) (passOut, error)
	close()
}

// workload builds an instance from the seed.
type workload struct {
	name  string
	setup func(ctx context.Context, sz sizes, seed int64) (instance, error)
}

// sequential is a workload whose ops run one at a time: run is the
// timed op and check verifies its output afterwards.
type sequential interface {
	passLen() int
	run(ctx context.Context, i int, rec *recorder, op, root int) (any, error)
	check(i int, out any) opResult
}

// sequentialPass runs every op of s once, timing each and tracing it
// when rec is non-nil.
func sequentialPass(ctx context.Context, s sequential, pass int, rec *recorder) passOut {
	var p passOut
	for i := 0; i < s.passLen(); i++ {
		op, root := rec.begin("op")
		a0 := allocBytes()
		t0 := time.Now()
		out, err := s.run(ctx, i, rec, op, root)
		lat := time.Since(t0)
		p.alloc += allocBytes() - a0
		rec.finish(root)
		p.wall += lat
		var r opResult
		if err != nil {
			r = opResult{err: err}
		} else {
			r = s.check(i, out)
		}
		if rec != nil {
			addProfile(&r, rec.profile(op))
		}
		r.pass, r.traced, r.lat, r.slot = pass, rec != nil, lat, i+1
		p.ops = append(p.ops, r)
	}
	return p
}

// addProfile adds a traced op's span breakdown to its samples: each
// child layer's time and the op's own self time. The breakdown must
// account for the op's whole duration.
func addProfile(r *opResult, p opProfile) {
	if r.samples == nil {
		r.samples = map[string]float64{}
	}
	for name, d := range p.children {
		r.samples[name+"_s"] = d.Seconds()
	}
	r.samples["core.self_s"] = p.self.Seconds()
	if gap := math.Abs((p.closed - p.total).Seconds()); gap > 0.02*p.total.Seconds() && r.err == nil {
		r.err = fmt.Errorf("span self times sum to %v, op took %v", p.closed, p.total)
	}
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// outcome is everything one workload run measured.
type outcome struct {
	setup  []float64
	passes []passOut
	rssMB  float64
	rec    *recorder
}

// run sets the workload up setupRuns times, then runs whole passes until
// their timed work reaches seconds. A traced run alternates untraced and
// traced passes and runs at least one of each, so the tracing overhead
// is measured on the same ops.
func run(ctx context.Context, w workload, sz sizes, seed int64, seconds time.Duration, traced bool) (*outcome, error) {
	o := &outcome{}
	var inst instance
	for start := time.Now(); len(o.setup) < setupRuns || time.Since(start) < setupTime; {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ctx, sz, seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	defer inst.close()
	if traced {
		o.rec = &recorder{}
	}
	var spent time.Duration
	for i := 0; ; i++ {
		var rec *recorder
		if traced && i%2 == 1 {
			rec = o.rec
		}
		p, err := inst.pass(ctx, i, rec)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", w.name, i, err)
		}
		o.passes = append(o.passes, p)
		spent += p.wall
		if spent >= seconds && (!traced || i >= 1) {
			break
		}
	}
	o.rssMB = peakRSSMB()
	checkDeterminism(o.passes)
	return o, nil
}

// checkDeterminism fails every op whose output differs from the first
// op with the same input.
func checkDeterminism(passes []passOut) {
	first := map[string]string{}
	for pi := range passes {
		for oi := range passes[pi].ops {
			r := &passes[pi].ops[oi]
			if r.key == "" || r.err != nil {
				continue
			}
			if h, ok := first[r.key]; !ok {
				first[r.key] = r.hash
			} else if h != r.hash {
				r.err = fmt.Errorf("nondeterministic: %s gave %.12s, earlier %.12s", r.key, r.hash, h)
			}
		}
	}
}

// ops returns the traced or the untraced ops.
func (o *outcome) ops(traced bool) []opResult {
	var out []opResult
	for _, p := range o.passes {
		for _, r := range p.ops {
			if r.traced == traced {
				out = append(out, r)
			}
		}
	}
	return out
}

// failures returns the attempted op count and the failed ops' errors.
func (o *outcome) failures() (attempted int, errs []error) {
	for _, p := range o.passes {
		for _, r := range p.ops {
			attempted++
			if r.err != nil {
				errs = append(errs, r.err)
			}
		}
	}
	return attempted, errs
}

// endToEnd computes the end-to-end metrics from the untraced passes and
// returns how many ops the latencies rest on. An op that every pass
// repeats counts once, at its fastest repetition, and the timed time is
// the sum of those: other tenants of a shared host slow whole stretches
// of a run by up to a third, and the fastest repetition is what the code
// costs without them. An op that runs once (a service job) counts as it
// ran, and its pass's wall time is timed. op_iqr_frac is the spread of
// every untraced op as it ran.
func (o *outcome) endToEnd() (m map[string]float64, n int, p90ok bool) {
	best := map[int]time.Duration{}
	var lats, raw []float64
	var wall time.Duration
	var alloc uint64
	for _, p := range o.passes {
		if len(p.ops) == 0 || p.ops[0].traced {
			continue
		}
		alloc += p.alloc
		if p.ops[0].slot == 0 {
			wall += p.wall
		}
		for _, r := range p.ops {
			raw = append(raw, ms(r.lat))
			if r.slot == 0 {
				lats = append(lats, ms(r.lat))
			} else if b, ok := best[r.slot]; !ok || r.lat < b {
				best[r.slot] = r.lat
			}
		}
	}
	for _, d := range best {
		lats = append(lats, ms(d))
		wall += d
	}
	n = len(lats)
	p90, p90ok := tail(lats, 0.9)
	return map[string]float64{
		"setup_s":         median(o.setup),
		"ops_per_s":       ratio(float64(n), wall.Seconds()),
		"op_p50_ms":       median(lats),
		"op_p90_ms":       p90,
		"op_iqr_frac":     iqrFrac(raw),
		"alloc_mb_per_op": ratio(float64(alloc)/1e6, float64(len(raw))),
		"peak_rss_mb":     o.rssMB,
	}, n, p90ok
}

// firstPass returns the counts and summed samples of the first pass of
// the given kind.
func (o *outcome) firstPass(traced bool) (counts, sums map[string]float64) {
	counts, sums = map[string]float64{}, map[string]float64{}
	for _, p := range o.passes {
		if len(p.ops) == 0 || p.ops[0].traced != traced {
			continue
		}
		for k, v := range p.counts {
			counts[k] += v
		}
		for _, r := range p.ops {
			for k, v := range r.counts {
				counts[k] += v
			}
			for k, v := range r.samples {
				sums[k] += v
			}
		}
		break
	}
	return counts, sums
}

// perLayer computes the per-layer metrics from the traced passes.
func (o *outcome) perLayer() map[string]float64 {
	traced := o.ops(true)
	samples := map[string][]float64{}
	for _, r := range traced {
		for k, v := range r.samples {
			samples[k] = append(samples[k], v)
		}
	}
	counts, sums := o.firstPass(true)
	m := map[string]float64{}
	for _, d := range perLayer {
		switch f, ok := derived[d.name]; {
		case ok:
			m[d.name] = f(counts, sums)
		case len(samples[d.name]) > 0:
			m[d.name] = median(samples[d.name])
		default:
			m[d.name] = counts[d.name]
		}
	}
	var plain []float64
	for _, r := range o.ops(false) {
		plain = append(plain, r.lat.Seconds())
	}
	var lats []float64
	for _, r := range traced {
		lats = append(lats, r.lat.Seconds())
	}
	m["trace.overhead_frac"] = ratio(median(lats), median(plain)) - 1
	return m
}

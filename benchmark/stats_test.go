package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The quartiles match Python's statistics.quantiles(xs, n=4), the rule
// the run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{1, 2, 4, 8, 16}, 1.5, 12},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := iqrFrac([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrFrac = %v, want %v", got, want)
	}
}

// p90 is a distribution only with at least 10 samples beyond it, so it
// needs 100 samples.
func TestTailNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // 1..n, reversed
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1, 1, false},
		{2, 2, false},
		{20, 18, false},
		{99, 90, false},
		{100, 90, true},
		{250, 225, true},
	} {
		v, ok := tail(seq(c.n), 0.9)
		if v != c.want || ok != c.ok {
			t.Errorf("tail(1..%d, 0.9) = %v, %v, want %v, %v", c.n, v, ok, c.want, c.ok)
		}
	}
	if _, ok := tail(nil, 0.9); ok {
		t.Error("tail of no samples reported ok")
	}
}

// A repeated op counts once, at its fastest untraced repetition; an op
// that runs once counts as it ran, over its pass's wall time.
func TestEndToEndTakesFastestRepetition(t *testing.T) {
	op := func(slot, ms int, traced bool) opResult {
		return opResult{slot: slot, lat: time.Duration(ms) * time.Millisecond, traced: traced}
	}
	o := &outcome{passes: []passOut{
		{ops: []opResult{op(1, 10, false), op(2, 30, false)}, wall: time.Second},
		{ops: []opResult{op(1, 5, true), op(2, 5, true)}},
		{ops: []opResult{op(1, 20, false), op(2, 25, false)}, wall: time.Second},
	}}
	m, n, _ := o.endToEnd()
	if n != 2 || m["op_p50_ms"] != 17.5 || m["op_p90_ms"] != 25 || math.Abs(m["ops_per_s"]-2/0.035) > 1e-9 {
		t.Errorf("repeated ops: n %d, metrics %v; want 2 ops, p50 17.5, p90 25, 2 ops in 35ms", n, m)
	}

	o = &outcome{passes: []passOut{{ops: []opResult{op(0, 10, false), op(0, 40, false)}, wall: 40 * time.Millisecond}}}
	m, n, _ = o.endToEnd()
	if n != 2 || m["op_p50_ms"] != 25 || math.Abs(m["ops_per_s"]-50) > 1e-9 {
		t.Errorf("ops run once: n %d, metrics %v; want 2 ops, p50 25, 2 ops in 40ms", n, m)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := at(0, 100)
	for _, c := range []struct {
		name     string
		children []interval
		want     int
	}{
		{"no children", nil, 100},
		{"gaps between children", []interval{at(10, 20), at(50, 70)}, 70},
		{"overlapping children counted once", []interval{at(10, 40), at(30, 60)}, 50},
		{"child inside another", []interval{at(10, 60), at(20, 30)}, 50},
		{"children clipped to the parent", []interval{at(-20, 10), at(90, 130)}, 80},
		{"child outside the parent", []interval{at(200, 300)}, 100},
		{"children cover everything", []interval{at(0, 50), at(50, 100)}, 0},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self = %v, want %vms", c.name, got, c.want)
		}
	}
}

// An op's span tree accounts for its whole duration only when its
// children do not overlap; the traced run fails an op whose tree does
// not.
func TestProfileClosesOnlyWithoutOverlap(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	rec := &recorder{}
	op, root := rec.beginAt("op", ms(0), ms(100))
	rec.add(op, root, "a", ms(10), ms(40))
	rec.add(op, root, "b", ms(40), ms(90))
	var r opResult
	addProfile(&r, rec.profile(op))
	if r.err != nil || r.samples["core.self_s"] != 0.02 || r.samples["a_s"] != 0.03 {
		t.Errorf("sequential children: err %v, samples %v", r.err, r.samples)
	}

	op, root = rec.beginAt("op", ms(0), ms(100))
	rec.add(op, root, "a", ms(10), ms(60))
	rec.add(op, root, "b", ms(40), ms(90))
	r = opResult{}
	addProfile(&r, rec.profile(op))
	if r.err == nil {
		t.Error("overlapping children were accepted")
	}
}

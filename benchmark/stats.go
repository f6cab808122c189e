package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), which is
// how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's exclusive method, in its own integer arithmetic.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrFrac is the spread of xs as a share of its median: (Q3-Q1)/median.
func iqrFrac(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tail returns the nearest-rank q-quantile of xs and whether at least
// minBeyond samples lie beyond it. A percentile with fewer samples past
// it is one or two outliers, not a distribution: p90 needs 100 samples.
func tail(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9)) // 0.9*100 may round up

	if rank < 1 {
		rank = 1
	}
	return s[rank-1], float64(len(s))*(1-q) >= minBeyond-1e-9
}

// minBeyond is the number of samples a reported tail percentile must
// have beyond it.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a closed time span [from, to].
type interval struct{ from, to time.Time }

// selfTime is the part of parent not covered by any child, with each
// child clipped to the parent. Children may overlap or leave gaps; the
// covered part is their union, so concurrent children are not counted
// twice.
func selfTime(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		if c.from.Before(parent.from) {
			c.from = parent.from
		}
		if c.to.After(parent.to) {
			c.to = parent.to
		}
		if c.to.After(c.from) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].from.Before(cs[j].from) })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case !c.from.After(cur.to):
			if c.to.After(cur.to) {
				cur.to = c.to
			}
		default:
			covered += cur.to.Sub(cur.from)
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.to.Sub(cur.from)
	}
	return parent.to.Sub(parent.from) - covered
}

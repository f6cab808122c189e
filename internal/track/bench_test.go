package track

import (
	"context"
	"math/rand"
	"testing"

	"stitchroute/internal/geom"
	"stitchroute/internal/plan"
)

func randomPanel(rng *rand.Rand, n int) *Problem {
	segs := make([]*plan.GSeg, n)
	for i := range segs {
		lo := rng.Intn(6)
		segs[i] = &plan.GSeg{
			NetID: i, Dir: geom.Vertical,
			Span:     geom.Interval{Lo: lo, Hi: lo + rng.Intn(6)},
			LoCrossL: rng.Intn(3) == 0, HiCrossR: rng.Intn(3) == 0,
		}
	}
	return &Problem{Width: 15, HasRightStitch: true, SUREps: 1, Segs: segs}
}

// BenchmarkGraphBased measures the paper's heuristic on a typical panel.
func BenchmarkGraphBased(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	panels := make([]*Problem, 32)
	for i := range panels {
		panels[i] = randomPanel(rng, 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(context.Background(), panels[i%len(panels)], GraphBased)
	}
}

// BenchmarkILPBased measures the exact branch-and-bound on the same
// panels — the Table VII runtime gap at panel granularity.
func BenchmarkILPBased(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	panels := make([]*Problem, 8)
	for i := range panels {
		panels[i] = randomPanel(rng, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(context.Background(), panels[i%len(panels)], ILPBased)
	}
}

package global

import (
	"testing"

	"stitchroute/internal/bench"
)

// BenchmarkGlobalMaze measures the maze-search global pass.
func BenchmarkGlobalMaze(b *testing.B) {
	spec, _ := bench.ByName("S13207")
	c := bench.Generate(spec)
	cfg := StitchAware()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRouter(c.Fabric, cfg)
		r.RouteAll(c)
	}
}

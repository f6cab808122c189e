// Package registry holds the canonical stitchvet analyzer set, shared by
// cmd/stitchvet and cmd/benchjson so the CLI and the lint benchmark agree
// on what "all analyzers" means.
package registry

import (
	"stitchroute/internal/analysis"
	"stitchroute/internal/analysis/ctxflow"
	"stitchroute/internal/analysis/floateq"
	"stitchroute/internal/analysis/hotalloc"
	"stitchroute/internal/analysis/leakcheck"
	"stitchroute/internal/analysis/lockdiscipline"
	"stitchroute/internal/analysis/nondeterm"
)

// All returns the full analyzer set in alphabetical order. The slice is
// freshly allocated; callers may filter it freely.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		floateq.Analyzer,
		hotalloc.Analyzer,
		leakcheck.Analyzer,
		lockdiscipline.Analyzer,
		nondeterm.Analyzer,
	}
}

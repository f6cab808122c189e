// Package registry holds the canonical stitchvet analyzer set, shared by
// cmd/stitchvet and the historical-catch test so both agree on what
// "all analyzers" means.
package registry

import (
	"stitchroute/internal/analysis"
	"stitchroute/internal/analysis/floateq"
	"stitchroute/internal/analysis/hotalloc"
	"stitchroute/internal/analysis/nondeterm"
)

// All returns the full analyzer set in alphabetical order. The slice is
// freshly allocated; callers may filter it freely.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		floateq.Analyzer,
		hotalloc.Analyzer,
		nondeterm.Analyzer,
	}
}

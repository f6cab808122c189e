package nondeterm_test

import (
	"testing"

	"stitchroute/internal/analysis/analyzertest"
	"stitchroute/internal/analysis/nondeterm"
)

func TestAnalyzer(t *testing.T) {
	analyzertest.Run(t, "../testdata", nondeterm.Analyzer, "nondeterm")
}

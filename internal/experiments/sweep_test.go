package experiments

import (
	"strings"
	"testing"
	"time"

	"stitchroute/internal/core"
)

// TestFprintSweepFormat pins the sweep table's text byte for byte over
// the default grid, so the weights' type can change without the table
// changing.
func TestFprintSweepFormat(t *testing.T) {
	betas, gammas := DefaultSweep()
	var rows []SweepRow
	k := 0
	for _, b := range betas {
		for _, g := range gammas {
			k++
			q := core.Quality{Routability: 98.87 + float64(k)/100, ShortPolygons: 24 * k, Wirelength: 447000 + int64(k)}
			cpu := time.Duration(k) * 1234567 * time.Microsecond
			rows = append(rows, SweepRow{Beta: b, Gamma: g, RouteSummary: RouteSummary{q, cpu}})
		}
	}
	var sb strings.Builder
	FprintSweep(&sb, "S9234", rows)
	want := `β/γ sweep on S9234 (paper: β=10, γ=5)
     β      γ |    Rout%    #SP        WL   CPU(s)
     0      0 |    98.88     24    447001     1.23
     0      5 |    98.89     48    447002     2.47
     2      0 |    98.90     72    447003     3.70
     2      5 |    98.91     96    447004     4.94
     5      0 |    98.92    120    447005     6.17
     5      5 |    98.93    144    447006     7.41
    10      0 |    98.94    168    447007     8.64
    10      5 |    98.95    192    447008     9.88
    20      0 |    98.96    216    447009    11.11
    20      5 |    98.97    240    447010    12.35
`
	if got := sb.String(); got != want {
		t.Errorf("sweep table:\n%s\nwant:\n%s", got, want)
	}
}

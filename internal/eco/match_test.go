package eco

import (
	"slices"
	"testing"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
)

// TestMatch checks the pairing both ECO engines read: which parent slot
// each edited slot reuses, and which parent slots are left stale. The
// parent has nets 10..14 in slots 0..4; net 12 spans (4,4)-(20,4).
func TestMatch(t *testing.T) {
	pc := &netlist.Circuit{Name: "match", Fabric: grid.New(60, 60, 3)}
	for k := 0; k < 5; k++ {
		y := 2 * k
		pc.Nets = append(pc.Nets, &netlist.Net{ID: 10 + k, Name: "n", Pins: []netlist.Pin{
			{Point: geom.Point{X: 4, Y: y}, Layer: 1},
			{Point: geom.Point{X: 20, Y: y}, Layer: 1},
		}})
	}
	net12 := []Pin{{X: 4, Y: 4, Layer: 1}, {X: 20, Y: 4, Layer: 1}}
	for _, tc := range []struct {
		name  string
		edits []Edit
		from  plan.Match
		stale []int
	}{
		{"untouched", nil, plan.Match{0, 1, 2, 3, 4}, nil},
		{"movepin", []Edit{{Op: OpMovePin, ID: 11, Pin: 1, X: 30, Y: 2}}, plan.Match{0, -1, 2, 3, 4}, []int{1}},
		{"move", []Edit{{Op: OpMove, ID: 13, Pins: []Pin{{X: 1, Y: 1, Layer: 1}, {X: 9, Y: 9, Layer: 2}}}}, plan.Match{0, 1, 2, -1, 4}, []int{3}},
		{"delete", []Edit{{Op: OpDelete, ID: 11}}, plan.Match{0, 2, 3, 4}, []int{1}},
		{"add", []Edit{{Op: OpAdd, ID: 20, Pins: []Pin{{X: 1, Y: 30, Layer: 1}, {X: 9, Y: 30, Layer: 1}}}}, plan.Match{0, 1, 2, 3, 4, -1}, nil},
		// Re-added with its old pins, net 12 looks unedited but is a
		// new net in the last slot: its old slot must be stale, not
		// reused.
		{"delete-re-add", []Edit{{Op: OpDelete, ID: 12}, {Op: OpAdd, ID: 12, Pins: net12}}, plan.Match{0, 1, 3, 4, -1}, []int{2}},
		{"delete-first-move-last", []Edit{{Op: OpDelete, ID: 10}, {Op: OpMovePin, ID: 14, Pin: 0, X: 5, Y: 8}}, plan.Match{1, 2, 3, -1}, []int{0, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Script{Edits: tc.edits}
			edited, err := s.Apply(pc)
			if err != nil {
				t.Fatal(err)
			}
			from := match(pc, edited, s.DirtyIDs())
			if !slices.Equal(from, tc.from) {
				t.Errorf("match %v, want %v", from, tc.from)
			}
			var stale []int
			for p, st := range from.Stale(len(pc.Nets)) {
				if st {
					stale = append(stale, p)
				}
			}
			if !slices.Equal(stale, tc.stale) {
				t.Errorf("stale parent slots %v, want %v", stale, tc.stale)
			}
			for i, p := range from {
				if p >= 0 && edited.Nets[i] != pc.Nets[p] {
					t.Errorf("slot %d matched to parent slot %d, which holds another net", i, p)
				}
			}
		})
	}
}

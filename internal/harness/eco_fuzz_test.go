package harness

import (
	"bytes"
	"sync"
	"testing"

	"stitchroute/internal/core"
	"stitchroute/internal/eco"
	"stitchroute/internal/netlist"
)

// fuzzECOSpec is the fixed circuit every FuzzECO input edits: small
// enough that a cold reference reroute costs ~1 ms per input.
var fuzzECOSpec = GenSpec{Name: "fuzz-eco", Seed: 7, XTracks: 45, YTracks: 30, Layers: 3, Nets: 12, Spread: 6}

var (
	fuzzECOOnce   sync.Once
	fuzzECOParent *core.Result
	fuzzECOErr    error
)

// fuzzECOSetup routes the fixed circuit once; the parent result is
// read-only for every ECO engine, so fuzz inputs can share it.
func fuzzECOSetup() (*netlist.Circuit, *core.Result, error) {
	c := Generate(fuzzECOSpec)
	fuzzECOOnce.Do(func() {
		fuzzECOParent, fuzzECOErr = core.Route(Generate(fuzzECOSpec), core.StitchAware())
	})
	return c, fuzzECOParent, fuzzECOErr
}

// uniquePins reports whether every pin location in the circuit is used
// by exactly one net. Fuzz inputs are free to stack pins of different
// nets on the same cell — a legal netlist, but one where cross-net
// "shorts" at the shared cell are forced by the input, not introduced
// by the router, so the shorts invariant only applies when this holds.
func uniquePins(c *netlist.Circuit) bool {
	seen := make(map[[2]int]int)
	for _, n := range c.Nets {
		for _, p := range n.Pins {
			k := [2]int{p.X, p.Y}
			if prev, ok := seen[k]; ok && prev != n.ID {
				return false
			}
			seen[k] = n.ID
		}
	}
	return true
}

// FuzzECO feeds arbitrary JSON edit scripts — including degenerate ones:
// empty scripts, delete-then-re-add of the same ID, out-of-fabric
// coordinates, oversized margins — to both ECO engines against a fixed
// committed circuit. Invalid scripts must be rejected with an explicit
// error, never a panic; valid ones must produce a replay result that is
// byte-for-byte the cold reroute of the edited circuit, a deterministic
// patch result whose report equals a full DRC check, and (whenever the edited circuit keeps pin locations
// unique) a DRC battery pass from both engines. Run via `make fuzz-eco`
// or
//
//	go test -fuzz=FuzzECO -fuzztime=30s -run '^$' ./internal/harness/
func FuzzECO(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"edits":[]}`))
	f.Add([]byte(`{"edits":[{"op":"movepin","id":0,"pin":0,"x":22,"y":11}]}`))
	f.Add([]byte(`{"edits":[{"op":"delete","id":3},{"op":"add","id":3,"pins":[{"x":5,"y":5,"layer":1},{"x":30,"y":9,"layer":1}]}]}`))
	f.Add([]byte(`{"edits":[{"op":"movepin","id":0,"pin":0,"x":999,"y":999}]}`))
	f.Add([]byte(`{"edits":[{"op":"add","id":99,"pins":[{"x":1,"y":1,"layer":1},{"x":40,"y":25,"layer":3}]}],"margin":4}`))
	f.Add([]byte(`{"edits":[{"op":"move","id":5,"pins":[{"x":2,"y":28,"layer":1},{"x":44,"y":2,"layer":1}]}]}`))
	f.Add([]byte(`{"edits":[{"op":"delete","id":0},{"op":"delete","id":1},{"op":"delete","id":2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := eco.ParseScript(bytes.NewReader(data))
		if err != nil {
			t.Skip() // not a script — mutation fodder
		}
		if len(s.Edits) > 32 {
			t.Skip() // bound per-input cost
		}
		if s.Margin > 64 {
			s.Margin = 64
		}
		c, parent, err := fuzzECOSetup()
		if err != nil {
			t.Fatalf("parent route: %v", err)
		}
		edited, err := s.Apply(c)
		if err != nil {
			return // cleanly rejected (out-of-fabric, unknown net, ...)
		}
		cfg := core.StitchAware()

		cold, err := core.Route(edited, cfg)
		if err != nil {
			t.Fatalf("cold route of edited circuit: %v", err)
		}
		coldCheck, err := Check(edited, cold)
		if err != nil {
			t.Fatal(err)
		}

		er, err := eco.Reroute(parent, c, s, cfg)
		if err != nil {
			t.Fatalf("replay reroute: %v", err)
		}
		rc, err := Check(er.Edited, er.Result)
		if err != nil {
			t.Fatal(err)
		}
		if rc.RoutesHash != coldCheck.RoutesHash {
			t.Errorf("replay diverged from cold: %s vs %s", rc.RoutesHash[:12], coldCheck.RoutesHash[:12])
		}

		pr, err := eco.ReroutePatch(parent, c, s, cfg)
		if err != nil {
			t.Fatalf("patch reroute: %v", err)
		}
		pc, err := Check(pr.Edited, pr.Result)
		if err != nil {
			t.Fatal(err)
		}
		pr2, err := eco.ReroutePatch(parent, c, s, cfg)
		if err != nil {
			t.Fatalf("patch determinism reroute: %v", err)
		}
		pc2, err := Check(pr2.Edited, pr2.Result)
		if err != nil {
			t.Fatal(err)
		}
		if pc.RoutesHash != pc2.RoutesHash {
			t.Errorf("patch nondeterministic: %s vs %s", pc.RoutesHash[:12], pc2.RoutesHash[:12])
		}
		for _, p := range []*eco.Result{pr, pr2} {
			if err := CheckReport(p.Edited, p.Result); err != nil {
				t.Error(err)
			}
		}

		// Connectivity and net accounting hold unconditionally; the
		// cross-net shorts invariant only when the input did not stack
		// pins of different nets on one cell (see uniquePins).
		if pc.Disconnected != 0 {
			t.Errorf("patch: %d routed nets disconnected", pc.Disconnected)
		}
		if pc.Report.RoutedNets+pc.FailedNets != pc.Report.TotalNets {
			t.Errorf("patch net accounting broken: %d + %d != %d",
				pc.Report.RoutedNets, pc.FailedNets, pc.Report.TotalNets)
		}
		if uniquePins(edited) {
			for _, v := range coldCheck.HardViolations() {
				t.Errorf("cold: %s", v)
			}
			for _, v := range rc.HardViolations() {
				t.Errorf("replay: %s", v)
			}
			for _, v := range pc.HardViolations() {
				t.Errorf("patch: %s", v)
			}
		}
	})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"

	"stitchroute/internal/bench"
	"stitchroute/internal/eco"
	"stitchroute/internal/fracture"
	"stitchroute/internal/nlio"
	"stitchroute/internal/plan"
	"stitchroute/internal/stencil"
)

// inputs serializes every input a seed derives: the service requests
// and upload payloads of two passes and the ECO edit scripts.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	for pass := 0; pass < 2; pass++ {
		for _, q := range deck(fullSizes, seed, pass) {
			body, _, err := prepare(q, false)
			if err != nil {
				t.Fatal(err)
			}
			buf.WriteString(q.key() + "\n")
			buf.Write(body)
		}
	}
	b, err := json.Marshal(ecoEdits(bench.Generate(spec(fullSizes.ecoParent)), fullSizes, seed))
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(b)
	return buf.Bytes()
}

func TestSeedDerivesInputs(t *testing.T) {
	a, b := inputs(t, 3), inputs(t, 3)
	if !bytes.Equal(a, b) {
		t.Error("seed 3 produced different inputs on two calls")
	}
	if bytes.Equal(a, inputs(t, 4)) {
		t.Error("seeds 3 and 4 produced the same inputs")
	}
	if d := deck(fullSizes, 3, 0); len(d) != 40 {
		t.Errorf("service pass has %d jobs, want 40", len(d))
	}
	seen := map[string]bool{}
	for seed := int64(0); seed < 3; seed++ {
		for pass := 0; pass < 3; pass++ {
			for _, q := range deck(fullSizes, seed, pass) {
				if !q.hot && seen[q.key()] {
					t.Errorf("upload %s repeats, so it would hit the cache", q.key())
				}
				seen[q.key()] = true
			}
		}
	}
}

// Seed 0 runs the canonical benchmark circuits.
func TestSeedZeroIsCanonical(t *testing.T) {
	want := map[string]bool{}
	for _, name := range fullSizes.chips {
		s, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := nlio.CircuitHash(bench.Generate(s))
		if err != nil {
			t.Fatal(err)
		}
		want[h] = true
	}
	specs := chipOrder(fullSizes, 0)
	if len(specs) != len(want) {
		t.Fatalf("%d chip-cold inputs, want %d", len(specs), len(want))
	}
	for _, s := range specs {
		h, err := nlio.CircuitHash(bench.Generate(s))
		if err != nil {
			t.Fatal(err)
		}
		if !want[h] {
			t.Errorf("seed 0 input %s is not the canonical circuit", s.Name)
		}
	}
}

// A route shorted to another net's wire must fail its op and make the
// command exit non-zero.
func TestShortFailsTheRun(t *testing.T) {
	ctx := context.Background()
	w := &chipCold{specs: chipOrder(smokeSizes, 0)}
	out, err := w.run(ctx, 0, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	clean := w.check(0, out)
	if clean.err != nil {
		t.Fatalf("clean route failed: %v", clean.err)
	}

	co := out.(chipOut)
	res := *co.res
	res.Routes = append([]plan.NetRoute(nil), res.Routes...)
	var a, b int = -1, -1
	for i, rt := range res.Routes {
		if len(rt.Wires) == 0 {
			continue
		}
		if a < 0 {
			a = i
		} else if b < 0 {
			b = i
			break
		}
	}
	if b < 0 {
		t.Fatal("no two nets with wires")
	}
	res.Routes[a].Wires = append(append(res.Routes[a].Wires[:0:0], res.Routes[a].Wires...), res.Routes[b].Wires[0])
	co.res = &res
	co.fr = fracture.Fracture(res.Routes, co.c.Fabric.Layers, fracture.ModeLShape, fracture.Options{})
	co.pl = stencil.Build(co.fr.Shots, stencil.Options{})
	bad := w.check(0, co)
	if bad.err == nil {
		t.Fatal("a shorted route passed the checks")
	}

	// The ECO check looks only at changed nets and their neighbours: a
	// patched net shorted to an untouched one must still fail.
	inst, err := setupECO(ctx, smokeSizes, 0)
	if err != nil {
		t.Fatal(err)
	}
	ew := inst.(*ecoPatch)
	eo, err := ew.run(ctx, 0, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	er := eo.(*eco.Result)
	if r := ew.check(0, er); r.err != nil {
		t.Fatalf("clean patch failed: %v", r.err)
	}
	patched := *er.Result
	patched.Routes = append([]plan.NetRoute(nil), er.Routes...)
	target, victim := -1, -1
	for s, n := range er.Edited.Nets {
		p, ok := ew.slot[n.ID]
		switch {
		case target < 0 && len(patched.Routes[s].Wires) > 0 && (!ok || !sameRoute(patched.Routes[s], ew.parent.Routes[p])):
			target = s
		case victim < 0 && ok && len(patched.Routes[s].Wires) > 0 && sameRoute(patched.Routes[s], ew.parent.Routes[p]):
			victim = s
		}
	}
	if target < 0 || victim < 0 {
		t.Fatal("no changed and unchanged net with wires")
	}
	patched.Routes[target].Wires = append(append(patched.Routes[target].Wires[:0:0], patched.Routes[target].Wires...), patched.Routes[victim].Wires[0])
	if r := ew.check(0, &eco.Result{Result: &patched, Edited: er.Edited, Stats: er.Stats}); r.err == nil {
		t.Error("a patch shorted to an untouched net passed the checks")
	}

	o := &outcome{setup: []float64{1}, passes: []passOut{{ops: []opResult{clean, bad}, wall: 1}}}
	var stdout bytes.Buffer
	if code := report(&stdout, io.Discard, "chip-cold", o, false); code == 0 {
		t.Error("the command exits 0 with a failed op")
	}
	s, _ := reportOf(t, "chip-cold", o, false)
	if s.Correct || s.Failed != 1 || s.Attempted != 2 {
		t.Errorf("summary %+v, want 1 of 2 failed and not correct", s)
	}
}

package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stitchroute/internal/geom"
	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
	"stitchroute/internal/plan"
	"stitchroute/internal/track"
)

// TestRouteContextPreCancelled: a context cancelled before the call
// returns ErrCancelled without doing any routing work.
func TestRouteContextPreCancelled(t *testing.T) {
	c := smallCircuit(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RouteContext(ctx, c, StitchAware())
	if res != nil {
		t.Error("cancelled route returned a result")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want to wrap context.Canceled", err)
	}
}

// TestRouteContextDeadline: an already-expired deadline aborts the run
// promptly and the error distinguishes timeout from plain cancellation.
func TestRouteContextDeadline(t *testing.T) {
	c := smallCircuit(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	_, err := RouteContext(ctx, c, StitchAware())
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want to wrap context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("expired-deadline route took %v, want prompt abort", elapsed)
	}
}

// TestRouteContextMidRouteCancel cancels concurrently with a full run and
// checks the router notices within the cancellation-check latency rather
// than routing to completion.
func TestRouteContextMidRouteCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("full routing in -short mode")
	}
	c := smallCircuit(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, err := RouteContext(ctx, c, StitchAware())
	if err == nil {
		// The circuit routed before the cancel landed; nothing to assert.
		t.Skip("routing finished before cancellation")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("err = %v, want ErrCancelled", err)
	}
}

// TestRouteContextBackground: RouteContext with a background context is
// exactly Route.
func TestRouteContextBackground(t *testing.T) {
	if testing.Short() {
		t.Skip("full routing in -short mode")
	}
	c := smallCircuit(t)
	res, err := RouteContext(context.Background(), c, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Routability() <= 0 {
		t.Error("background-context route produced nothing")
	}
}

// TestRouteJoinsGoroutines: Route solves layer and track panels on
// goroutines of its own; by the time it returns, all of them have
// exited.
func TestRouteJoinsGoroutines(t *testing.T) {
	c := &netlist.Circuit{Name: "join", Fabric: grid.New(90, 90, 3), Nets: []*netlist.Net{
		{ID: 0, Name: "a", Pins: []netlist.Pin{pin(3, 3), pin(70, 50)}},
		{ID: 1, Name: "b", Pins: []netlist.Pin{pin(20, 70), pin(22, 10), pin(60, 40)}},
		{ID: 2, Name: "c", Pins: []netlist.Pin{pin(5, 80), pin(80, 80)}},
	}}
	before := runtime.NumGoroutine()
	if _, err := Route(c, StitchAware()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Route, want %d:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// cancelAfter is a context that reports cancellation from its (n+1)-th
// Err call on. The panel runner asks it once before starting each
// panel, so exactly n panels start; the one-segment ILP searches below
// end long before their first poll.
type cancelAfter struct {
	context.Context
	n atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestAssignTracksILPCancelled: once the context is cancelled, the ILP
// track stage starts no further panel and returns the context's error;
// the panels it had started are assigned, the rest are left untouched.
func TestAssignTracksILPCancelled(t *testing.T) {
	c := &netlist.Circuit{Name: "t", Fabric: grid.New(90, 90, 3)}
	var plans []*plan.NetPlan
	for i := 0; i < 6; i++ {
		s := &plan.GSeg{NetID: i, Dir: geom.Vertical, Panel: i, Span: geom.Interval{Lo: 0, Hi: 3}, Layer: 2}
		plans = append(plans, &plan.NetPlan{NetID: i, Segs: []*plan.GSeg{s}})
	}
	const started = 2
	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(started)
	if _, _, err := assignTracks(ctx, c, plans, track.ILPBased); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, p := range plans {
		if solved := p.Segs[0].Tracks != nil; solved != (i < started) {
			t.Errorf("panel %d: solved = %v, want %v", i, solved, i < started)
		}
	}
}

// TestRunPanelsRepanicsOnCaller: a panel's panic reaches the caller of
// the runner, naming the panel, where it can be recovered; no panel
// goroutine outlives the call.
func TestRunPanelsRepanicsOnCaller(t *testing.T) {
	keys := make([]panelKey, 8)
	for i := range keys {
		keys[i] = panelKey{dirBit: 1, panel: i, layer: 2}
	}
	before := runtime.NumGoroutine()
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = runPanels(context.Background(), keys, func(i int) {
			if i == 3 {
				panic("boom")
			}
		})
		return nil
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, "panel {dirBit:1 panel:3 layer:2}: boom") {
		t.Fatalf("recovered %v, want the panel's key and panic value", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panic, want %d", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"stitchroute/internal/grid"
	"stitchroute/internal/netlist"
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

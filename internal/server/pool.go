package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"stitchroute/internal/core"
	"stitchroute/internal/eco"
)

// worker drains the job queue until it is closed (Shutdown). A job that
// was cancelled while still queued is skipped without occupying the
// worker, so cancellations never block the pool.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if o, ok := s.runJob(j); ok {
			s.finish(j, o)
		}
	}
}

// outcome is what one run of a job produced, before it is classified
// into the job's terminal state.
type outcome struct {
	res     *core.Result
	wp      *WritePrep
	er      *eco.Result
	ecoTime time.Duration
	err     error
}

// runJob executes one job on the calling worker: it derives the job's
// context (server base context + per-job timeout) and runs the router.
// It reports false, running nothing, for a job cancelled while queued.
func (s *Server) runJob(j *Job) (o outcome, ran bool) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return o, false
	}
	ctx := s.baseCtx
	var cancel context.CancelFunc
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	circuit, cfg, req, fmode := j.circuit, j.cfg, j.req, j.fracMode
	ecoRun, ecoScript, ecoBase, ecoFrom := j.ecoRun, j.ecoScript, j.ecoBase, j.ecoFrom
	j.mu.Unlock()

	// A panic in routing, ECO or write-prep fails this job only: the
	// worker goes on to the next one. Core re-raises a panic of a layer
	// or track panel goroutine here, on the run's own goroutine.
	defer func() {
		if v := recover(); v != nil {
			s.metrics.panicked.Add(1)
			o, ran = outcome{err: panicError(v)}, true
		}
	}()
	if ecoRun != nil {
		// ECO fork: incremental reroute from the parent's committed
		// result instead of a cold pipeline run.
		t0 := time.Now()
		if o.er, o.err = ecoRun(ctx, ecoFrom, ecoBase, ecoScript, cfg); o.err == nil {
			o.res = o.er.Result
			o.ecoTime = time.Since(t0)
		}
	} else {
		o.res, o.err = s.route(ctx, circuit, cfg)
	}
	// Write-prep rides the same job context, so a cancel or timeout during
	// fracturing classifies exactly like one during routing.
	if o.err == nil && req.Fracture != "" {
		o.wp, o.err = BuildWritePrep(ctx, o.res, circuit.Fabric.Layers, fmode, req.Stencil)
	}
	return o, true
}

// panicFrames is how many stack frames a panicked job's error keeps.
const panicFrames = 5

// panicError describes a panic recovered in a deferred call: "panic:"
// and the value, then the first frames below the panic, skipping the
// runtime's own.
func panicError(v any) error {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	msg, below := fmt.Sprintf("panic: %v", v), false
	for n, more := 0, true; more && n < panicFrames; {
		var f runtime.Frame
		f, more = frames.Next()
		if below && !strings.HasPrefix(f.Function, "runtime.") {
			msg += fmt.Sprintf("\n\t%s (%s:%d)", f.Function, filepath.Base(f.File), f.Line)
			n++
		}
		below = below || f.Function == "runtime.gopanic"
	}
	return errors.New(msg)
}

// finish classifies a run's outcome into the job's terminal state. It
// takes s.mu before j.mu, the server's lock order, so a done job enters
// the result cache in the same critical section that makes it visible
// as done: a client that sees the job done and resubmits always hits.
func (s *Server) finish(j *Job, o outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	j.finished = time.Now()
	err := o.err
	cancelled := errors.Is(err, core.ErrCancelled) || errors.Is(err, context.Canceled)
	switch {
	case err == nil:
		j.state = StateDone
		j.result = o.res
		j.writePrep = o.wp
		if o.er != nil {
			j.eco.Record(o.er.Stats, o.ecoTime)
		}
		// Patch-mode ECO jobs carry no key: their result is not
		// byte-identical to a cold reroute and must not populate the
		// content-addressed cold-route cache.
		if j.key != "" {
			s.byKey[j.key] = j
		}
		s.metrics.addRun(o.res)
	case j.cancelRequested && cancelled:
		j.state = StateCancelled
		j.errMsg = "cancelled by request"
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("timeout: exceeded %v: %v", j.timeout, err)
	case cancelled:
		// Base-context cancellation: the server is shutting down.
		j.state = StateCancelled
		j.errMsg = "cancelled: server shutting down"
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.dropFork()
	j.mu.Unlock()
	s.evictLocked() // j just went terminal
}

// Shutdown stops the pool gracefully: intake is closed immediately, the
// workers drain every job already accepted (queued and running), and
// Shutdown blocks until they finish. If ctx expires first, the running
// jobs are cancelled (they transition to cancelled via the usual
// plumbing) and Shutdown waits for the workers to observe it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Closing under s.mu is what makes the pool safe for callers that
	// stop it with requests in flight: every send (enqueue) holds s.mu
	// and re-checks closed first, so no send can race this close.
	// close is ordered against enqueue's send by design: both hold s.mu
	// and enqueue re-checks s.closed.
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

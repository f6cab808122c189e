package server

import (
	"context"
	"errors"
	"fmt"
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
		s.runJob(j)
		s.evictFinished() // j just went terminal
	}
}

// runJob executes one job on the calling worker: it derives the job's
// context (server base context + per-job timeout), runs the router, and
// classifies the outcome into the terminal state.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	ctx := s.baseCtx
	var cancel context.CancelFunc
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	circuit, cfg, req, fmode := j.circuit, j.cfg, j.req, j.fracMode
	ecoRun, ecoScript, ecoBase, ecoFrom := j.ecoRun, j.ecoScript, j.ecoBase, j.ecoFrom
	j.mu.Unlock()

	var res *core.Result
	var err error
	var er *eco.Result
	var ecoTime time.Duration
	if ecoRun != nil {
		// ECO fork: incremental reroute from the parent's committed
		// result instead of a cold pipeline run.
		t0 := time.Now()
		if er, err = ecoRun(ctx, ecoFrom, ecoBase, ecoScript, cfg); err == nil {
			res = er.Result
			ecoTime = time.Since(t0)
		}
	} else {
		res, err = s.route(ctx, circuit, cfg)
	}
	// Write-prep rides the same job context, so a cancel or timeout during
	// fracturing classifies exactly like one during routing.
	var wp *WritePrep
	if err == nil && req.Fracture != "" {
		wp, err = BuildWritePrep(ctx, res, circuit.Fabric.Layers, fmode, req.Stencil)
	}
	cancel()

	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	cancelled := errors.Is(err, core.ErrCancelled) || errors.Is(err, context.Canceled)
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
		j.writePrep = wp
		if er != nil {
			j.eco.Record(er.Stats, ecoTime)
		}
		// Patch-mode ECO jobs carry no key: their result is not
		// byte-identical to a cold reroute and must not populate the
		// content-addressed cold-route cache.
		if j.key != "" {
			s.cache.put(j.key, res)
		}
		s.metrics.addRun(res)
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
	//lint:ignore lockdiscipline close is ordered against enqueue's send by design: both hold s.mu and enqueue re-checks s.closed, which is exactly the PR 1 race fix
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

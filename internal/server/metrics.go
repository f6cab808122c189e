package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stitchroute/internal/core"
)

// metrics accumulates per-stage routing time across completed jobs.
// Job-state counts, queue depth, and cache counters are read from their
// owning structures at render time rather than double-booked here.
type metrics struct {
	mu           sync.Mutex
	stageSeconds map[string]float64
	jobsRouted   int64 // jobs that ran to completion on a worker
	// panicked counts runs that panicked (and failed their job).
	panicked atomic.Int64
}

func newMetrics() *metrics {
	m := &metrics{stageSeconds: map[string]float64{}}
	for _, st := range (core.StageTimes{}).Stages() {
		m.stageSeconds[st.Name] = 0
	}
	return m
}

// addRun books one completed routing run's stage times.
func (m *metrics) addRun(res *core.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range res.Times.Stages() {
		m.stageSeconds[st.Name] += st.Time.Seconds()
	}
	m.jobsRouted++
}

// writeMetrics renders the full metrics page: expvar-style "name value"
// lines, one metric per line, easily scraped or eyeballed.
func (s *Server) writeMetrics(w io.Writer) {
	byState := map[State]int{}
	s.mu.Lock()
	total := len(s.jobs)
	for _, j := range s.jobs {
		st, _ := j.snapshot()
		byState[st]++
	}
	start := s.start
	evicted := s.evicted
	hits, misses, entries := s.cacheHits, s.cacheMisses, len(s.byKey)
	s.mu.Unlock()

	fmt.Fprintf(w, "uptime_seconds %.3f\n", time.Since(start).Seconds())
	fmt.Fprintf(w, "workers %d\n", s.cfg.Workers)
	fmt.Fprintf(w, "jobs_total %d\n", total)
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "jobs_%s %d\n", st, byState[st])
	}
	fmt.Fprintf(w, "jobs_evicted %d\n", evicted)
	fmt.Fprintf(w, "jobs_panicked %d\n", s.metrics.panicked.Load())
	fmt.Fprintf(w, "queue_depth %d\n", len(s.queue))
	fmt.Fprintf(w, "queue_capacity %d\n", cap(s.queue))

	fmt.Fprintf(w, "cache_hits %d\n", hits)
	fmt.Fprintf(w, "cache_misses %d\n", misses)
	fmt.Fprintf(w, "cache_entries %d\n", entries)

	s.metrics.mu.Lock()
	fmt.Fprintf(w, "jobs_routed %d\n", s.metrics.jobsRouted)
	stages := make([]string, 0, len(s.metrics.stageSeconds))
	totalSec := 0.0
	for name := range s.metrics.stageSeconds {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	for _, name := range stages {
		sec := s.metrics.stageSeconds[name]
		totalSec += sec
		fmt.Fprintf(w, "stage_seconds_%s %.6f\n", name, sec)
	}
	s.metrics.mu.Unlock()
	fmt.Fprintf(w, "route_seconds_total %.6f\n", totalSec)
}

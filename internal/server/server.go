// Package server implements routing-as-a-service: an HTTP JSON API over
// the core stitch-aware router. Jobs are submitted to a bounded worker
// pool, identical (circuit, config) submissions are served from the
// newest retained done job with the same content address, and every job
// can be cancelled or time-bounded — cancellation is real, plumbed
// through core.RouteContext down to the detailed-routing net loop.
//
// Endpoints (see docs/API.md for the full contract):
//
//	POST   /v1/jobs            submit a routing job
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}       job status + Table III-style summary
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	POST   /v1/jobs/{id}/eco   fork a done job: incremental (ECO) reroute
//	GET    /v1/jobs/{id}/routes  routed geometry (nlio routes format)
//	GET    /v1/jobs/{id}/svg   routed layout rendering
//	GET    /v1/benchmarks      bundled benchmark circuits
//	GET    /healthz            liveness probe
//	GET    /metrics            expvar-style plain-text metrics
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/geom"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/place"
	"stitchroute/internal/viz"
)

// maxBodyBytes bounds an uploaded request body (nlio circuits are text;
// the largest bundled benchmark serializes to ~3 MB).
const maxBodyBytes = 32 << 20

// routeFunc runs one routing job; replaced in tests to make
// cancellation and timing deterministic.
type routeFunc func(ctx context.Context, c *netlist.Circuit, cfg core.Config) (*core.Result, error)

// Config configures a Server. The zero value gets sensible defaults.
type Config struct {
	// Workers is the worker-pool size, the number of jobs routed
	// concurrently; 0 means runtime.NumCPU.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with 503. 0 means 64.
	QueueDepth int
	// MaxFinished caps how many terminal (done/failed/cancelled) jobs are
	// retained in the store; beyond it the oldest terminal jobs are
	// evicted, releasing their circuit and result. It is also the result
	// cache's only bound: a submission hits only while a retained done
	// job holds its key. 0 means 512; negative disables eviction
	// (unbounded retention).
	MaxFinished int
	// DefaultTimeout applies to jobs that do not set one; 0 = unbounded.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested per-job timeout; 0 = uncapped.
	MaxTimeout time.Duration

	// route overrides the routing entry point (tests only).
	route routeFunc
}

// Server is the routing service. Create with New, serve via Handler,
// stop with Shutdown.
type Server struct {
	cfg        Config
	mux        *http.ServeMux
	metrics    *metrics
	queue      chan *Job
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	route      routeFunc
	start      time.Time

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // insertion order, for stable listings
	nextID int
	// byKey is the result cache: the newest retained done job per cache
	// key. A key leaves it when that job is evicted.
	byKey       map[string]*Job
	cacheHits   int64
	cacheMisses int64
	evicted     int64 // terminal jobs dropped by the retention cap
	closed      bool
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	switch {
	case cfg.MaxFinished == 0:
		cfg.MaxFinished = 512
	case cfg.MaxFinished < 0:
		cfg.MaxFinished = 0
	}
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		queue:   make(chan *Job, cfg.QueueDepth),
		route:   cfg.route,
		start:   time.Now(),
		jobs:    make(map[string]*Job),
		byKey:   make(map[string]*Job),
	}
	if s.route == nil {
		s.route = core.RouteContext
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/jobs/{id}/eco", s.handleECO)
	s.mux.HandleFunc("GET /v1/jobs/{id}/routes", s.handleRoutes)
	s.mux.HandleFunc("GET /v1/jobs/{id}/svg", s.handleSVG)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler { return s.mux }

// apiError carries an HTTP status with a message.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr writes an error response as {"error": msg}.
func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// lookup finds a job by path id.
func (s *Server) lookup(r *http.Request) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

// jobTimeout resolves a requested timeout string against the server's
// default and cap.
func (s *Server) jobTimeout(req string) (time.Duration, *apiError) {
	timeout := s.cfg.DefaultTimeout
	if req != "" {
		d, err := time.ParseDuration(req)
		if err != nil {
			return 0, badRequest("bad timeout %q: %v", req, err)
		}
		if d <= 0 {
			return 0, badRequest("timeout must be positive, got %q", req)
		}
		timeout = d
	}
	if s.cfg.MaxTimeout > 0 && (timeout == 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	return timeout, nil
}

// cacheKey content-addresses a routing job: the hash covers the canonical
// nlio circuit hash of the (post-placement) circuit plus the full config
// fingerprint, so two requests collide exactly when re-routing would
// reproduce the same result. The framework is deterministic for a fixed
// (circuit, config), which is what makes result caching sound — the
// correctness harness (internal/harness) tests that determinism directly.
func cacheKey(c *netlist.Circuit, cfg core.Config) (string, error) {
	ch, err := nlio.CircuitHash(c)
	if err != nil {
		return "", err
	}
	// Config is plain value data (bools, ints, floats, enums), so the
	// %+v rendering is a deterministic fingerprint.
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|cfg=%+v", ch, cfg)))
	return hex.EncodeToString(h[:]), nil
}

// buildJob validates the request and constructs the (still unqueued)
// job: circuit, config, timeout, and cache key.
func (s *Server) buildJob(req *JobRequest) (*Job, *apiError) {
	if (req.Benchmark == "") == (req.Circuit == "") {
		return nil, badRequest("exactly one of \"benchmark\" or \"circuit\" must be set")
	}
	if req.Mode == "" {
		req.Mode = "stitch"
	}
	cfg, fmode, err := req.Config()
	if err != nil {
		return nil, badRequest("%v", err)
	}

	timeout, apiErr := s.jobTimeout(req.Timeout)
	if apiErr != nil {
		return nil, apiErr
	}

	var c *netlist.Circuit
	if req.Benchmark != "" {
		spec, err := bench.ByName(req.Benchmark)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		c = bench.Generate(spec)
	} else {
		c, err = nlio.Read(strings.NewReader(req.Circuit))
		if err != nil {
			return nil, badRequest("bad circuit: %v", err)
		}
		// The job keeps a copy of the request for its lifetime; drop the
		// upload text, which nothing reads past this parse.
		req.Circuit = ""
	}
	if req.Place {
		c, _ = place.Refine(c)
	}
	key, err := cacheKey(c, cfg)
	if err != nil {
		return nil, &apiError{code: http.StatusInternalServerError, msg: err.Error()}
	}
	return &Job{
		req:      *req,
		circuit:  c,
		cfg:      cfg,
		fracMode: fmode,
		timeout:  timeout,
		key:      key,
		created:  time.Now(),
	}, nil
}

// registerHit stores a cache-hit job, which never touches the queue: it
// is assigned an id and, born done, becomes its key's newest holder in
// the result cache and counts against the retention cap. Fails once the
// server is shutting down.
func (s *Server) registerHit(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.registerLocked(j)
	s.byKey[j.key] = j
	s.evictLocked()
	return true
}

func (s *Server) registerLocked(j *Job) {
	s.nextID++
	j.id = fmt.Sprintf("job-%06d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
}

// enqueue registers the job and places it on the worker queue as one
// critical section, so a concurrent submit can never interleave between
// registration and the send (which previously corrupted s.order on the
// queue-full rollback). Every send to s.queue happens under s.mu with
// s.closed false, and Shutdown flips closed and closes the channel under
// the same lock, so the send can neither block (len < cap was just
// checked) nor hit a closed channel.
func (s *Server) enqueue(j *Job) *apiError {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return &apiError{code: http.StatusServiceUnavailable, msg: "server is shutting down"}
	}
	if len(s.queue) == cap(s.queue) {
		return &apiError{code: http.StatusServiceUnavailable,
			msg: fmt.Sprintf("job queue full (%d queued)", cap(s.queue))}
	}
	s.registerLocked(j)
	// Deliberate send under s.mu: len < cap was just checked under the
	// same lock so it cannot block, and Shutdown closes the queue under
	// s.mu so it cannot be closed mid-send.
	s.queue <- j
	return nil
}

// cached returns the result of the newest retained done job with the
// key, counting the lookup as a cache hit or miss.
func (s *Server) cached(key string) (*core.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byKey[key]
	if !ok {
		s.cacheMisses++
		return nil, false
	}
	s.cacheHits++
	_, res := j.snapshot()
	return res, true
}

// evictLocked enforces the terminal-job retention cap: once more than
// cfg.MaxFinished jobs are terminal, the oldest terminal jobs are dropped
// from the store and from the result cache, releasing their circuit and
// result references. Queued and running jobs are never evicted. Called
// with s.mu held after a job reaches a terminal state; it takes each
// job's lock in turn, so no job lock may be held.
func (s *Server) evictLocked() {
	max := s.cfg.MaxFinished
	if max <= 0 {
		return
	}
	terminal := 0
	for _, id := range s.order {
		if st, _ := s.jobs[id].snapshot(); st.Terminal() {
			terminal++
		}
	}
	if terminal <= max {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if st, _ := j.snapshot(); terminal > max && st.Terminal() {
			delete(s.jobs, id)
			if s.byKey[j.key] == j {
				delete(s.byKey, j.key)
			}
			s.evicted++
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	// Zero the truncated tail so evicted ids are not pinned by the
	// backing array.
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = ""
	}
	s.order = kept
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, apiErr := s.buildJob(&req)
	if apiErr != nil {
		writeErr(w, apiErr.code, apiErr.msg)
		return
	}
	s.admit(w, r, j)
}

// admit serves a built job from the result cache when a retained done
// job holds its key (the job is born done, without occupying a worker:
// 200), or queues it (202), and writes the response. Jobs without a key
// (patch forks) and NoCache jobs always queue.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, j *Job) {
	if !j.req.NoCache && j.key != "" {
		if res, ok := s.cached(j.key); ok {
			// Write-prep is a cheap pure post-pass over the routes, outside
			// the cache key; recompute it inline for the hit.
			if j.req.Fracture != "" {
				wp, err := BuildWritePrep(r.Context(), res, j.circuit.Fabric.Layers, j.fracMode, j.req.Stencil)
				if err != nil {
					writeErr(w, http.StatusInternalServerError, err.Error())
					return
				}
				j.writePrep = wp
			}
			j.state = StateDone
			j.cacheHit = true
			j.result = res
			now := time.Now()
			j.started, j.finished = now, now
			if !s.registerHit(j) {
				writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
				return
			}
			w.Header().Set("Location", "/v1/jobs/"+j.id)
			writeJSON(w, http.StatusOK, j.view())
			return
		}
	}

	j.state = StateQueued
	if apiErr := s.enqueue(j); apiErr != nil {
		writeErr(w, apiErr.code, apiErr.msg)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.view())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		// The worker that eventually dequeues it skips non-queued jobs.
		j.state = StateCancelled
		j.errMsg = "cancelled while queued"
		j.finished = time.Now()
		j.mu.Unlock()
		s.mu.Lock()
		s.evictLocked()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, j.view())
	case StateRunning:
		j.cancelRequested = true
		cancel := j.cancel
		j.mu.Unlock()
		cancel() // the router aborts at its next cancellation check
		writeJSON(w, http.StatusAccepted, j.view())
	default:
		state := j.state
		j.mu.Unlock()
		writeErr(w, http.StatusConflict, fmt.Sprintf("job is already %s", state))
	}
}

func (s *Server) handleRoutes(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	state, res := j.snapshot()
	if state != StateDone {
		writeErr(w, http.StatusConflict, fmt.Sprintf("job is %s, not done", state))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = nlio.WriteRoutes(w, res.Routes)
}

func (s *Server) handleSVG(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	state, res := j.snapshot()
	if state != StateDone {
		writeErr(w, http.StatusConflict, fmt.Sprintf("job is %s, not done", state))
		return
	}
	var pins []geom.Point
	for _, n := range j.circuit.Nets {
		for _, p := range n.Pins {
			pins = append(pins, p.Point)
		}
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	_ = viz.WriteSVG(w, j.circuit.Fabric, res.Routes, viz.Options{
		Scale: 4, ShowSUR: true, Pins: pins,
		Title: fmt.Sprintf("%s — %s", j.circuit.Name, j.req.Mode),
	})
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	type view struct {
		Name   string `json:"name"`
		Suite  string `json:"suite"`
		Layers int    `json:"layers"`
		Nets   int    `json:"nets"`
		Pins   int    `json:"pins"`
	}
	specs := bench.All()
	views := make([]view, len(specs))
	for i, sp := range specs {
		views[i] = view{Name: sp.Name, Suite: sp.Suite, Layers: sp.Layers, Nets: sp.Nets, Pins: sp.Pins}
	}
	writeJSON(w, http.StatusOK, map[string]any{"benchmarks": views})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.writeMetrics(w)
}

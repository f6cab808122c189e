package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stitchroute"
	"stitchroute/internal/bench"
	"stitchroute/internal/nlio"
	"stitchroute/internal/server"
)

// clients is the closed loop's client count: one per core of the 2-CPU
// host the bounds were measured on, so two jobs contend for the cores.
const clients = 2

// pollEvery is how often a client polls its job until it is terminal.
const pollEvery = 5 * time.Millisecond

// request is one job of the service mix.
type request struct {
	// hot resubmits a bundled benchmark by name (a cache hit after
	// set-up); otherwise spec, at a fresh seed offset, is uploaded.
	hot      bool
	spec     bench.Spec
	fracture bool
}

func (q request) key() string {
	if q.hot {
		return "hot " + q.spec.Name
	}
	return fmt.Sprintf("%s@%d fracture=%v", q.spec.Name, q.spec.SeedOffset, q.fracture)
}

// deck is pass's job list: every class in sz's exact proportions, in a
// seeded order, with upload seed offsets no other pass or seed uses, so
// every upload misses the cache.
func deck(sz sizes, seed int64, pass int) []request {
	rng := rand.New(rand.NewSource(seed*7919 + int64(pass)))
	var reqs, uploads []request
	for _, name := range sz.hot {
		for i := 0; i < sz.hotEach; i++ {
			reqs = append(reqs, request{hot: true, spec: spec(name)})
		}
	}
	for _, u := range sz.uploads {
		for i := 0; i < u.count; i++ {
			s := spec(u.circuit)
			s.SeedOffset = (seed+1)<<32 | int64(pass)<<16 | int64(len(uploads)+1)
			uploads = append(uploads, request{spec: s})
		}
	}
	for _, i := range rng.Perm(len(uploads))[:sz.fractured] {
		uploads[i].fracture = true
	}
	reqs = append(reqs, uploads...)
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// prepare builds the request body. Traced, it times the client's calls
// into the generator and nlio, including the circuit hash the server
// keys its cache on.
func prepare(q request, traced bool) ([]byte, map[string]float64, error) {
	samples := map[string]float64{}
	if q.hot {
		b, err := json.Marshal(server.JobRequest{Benchmark: q.spec.Name})
		return b, samples, err
	}
	t0 := time.Now()
	c := stitchroute.Generate(q.spec)
	t1 := time.Now()
	var text strings.Builder
	if err := nlio.Write(&text, c); err != nil {
		return nil, nil, err
	}
	t2 := time.Now()
	if traced {
		samples["bench.generate_s"] = t1.Sub(t0).Seconds()
		samples["nlio.write_ms"] = ms(t2.Sub(t1))
		if _, err := nlio.CircuitHash(c); err != nil {
			return nil, nil, err
		}
		samples["nlio.circuit_hash_ms"] = ms(time.Since(t2))
	}
	req := server.JobRequest{Circuit: text.String()}
	if q.fracture {
		req.Fracture, req.Stencil = "lshape", true
	}
	b, err := json.Marshal(req)
	return b, samples, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serviceMix is meblserved in-process on a loopback listener with the
// default server.Config, driven by a closed loop of clients.
type serviceMix struct {
	sz     sizes
	seed   int64
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
	// hotHash is each hot circuit's routes hash from set-up.
	hotHash map[string]string
}

// setupService starts the server and routes the hot set through it.
func setupService(ctx context.Context, sz sizes, seed int64) (instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &serviceMix{
		sz: sz, seed: seed,
		srv:     server.New(server.Config{}),
		served:  make(chan error, 1),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		base:    "http://" + ln.Addr().String(),
		hotHash: map[string]string{},
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go func() { w.served <- w.hs.Serve(ln) }()
	for _, name := range sz.hot {
		q := request{hot: true, spec: spec(name)}
		r := w.check(ctx, q, w.do(ctx, q, false), nil)
		if r.err != nil {
			w.close()
			return nil, fmt.Errorf("hot %s: %w", name, r.err)
		}
		w.hotHash[name] = r.hash
	}
	return w, nil
}

func (w *serviceMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // the listener closes either way
	<-w.served
	_ = w.srv.Shutdown(ctx) // every job is terminal; nothing to drain
	w.client.CloseIdleConnections()
}

// job is one request's trip through the server, as the client saw it.
type job struct {
	lat          time.Duration
	post0, post1 time.Time // wall clock, comparable with the view's
	end          time.Time
	view         server.JobView
	polls        int
	samples      map[string]float64
	err          error
}

// do submits q and polls until the job is terminal.
func (w *serviceMix) do(ctx context.Context, q request, traced bool) job {
	var j job
	body, samples, err := prepare(q, traced)
	if err != nil {
		j.err = err
		return j
	}
	j.samples = samples
	start := time.Now()
	j.post0 = start.Round(0)
	if j.err = w.call(ctx, http.MethodPost, "/v1/jobs", body, &j.view); j.err != nil {
		return j
	}
	j.post1 = time.Now().Round(0)
	for !j.view.State.Terminal() {
		time.Sleep(pollEvery)
		j.polls++
		if j.err = w.call(ctx, http.MethodGet, "/v1/jobs/"+j.view.ID, nil, &j.view); j.err != nil {
			return j
		}
	}
	j.lat = time.Since(start)
	j.end = time.Now().Round(0)
	return j
}

// call sends one API request and decodes a JSON reply into v, or
// returns the body as text into a *[]byte.
func (w *serviceMix) call(ctx context.Context, method, path string, body []byte, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	if raw, ok := v.(*[]byte); ok {
		*raw = b
		return nil
	}
	return json.Unmarshal(b, v)
}

// scrape reads the server's /metrics counters.
func (w *serviceMix) scrape(ctx context.Context) (map[string]float64, error) {
	var b []byte
	if err := w.call(ctx, http.MethodGet, "/metrics", nil, &b); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				m[f[0]] = v
			}
		}
	}
	return m, sc.Err()
}

// pass runs one deck through the closed loop. A traced pass also records
// each job's spans from the view's timestamps and scrapes /metrics
// around the pass. Checks run after the timed window.
func (w *serviceMix) pass(ctx context.Context, pi int, rec *recorder) (passOut, error) {
	reqs := deck(w.sz, w.seed, pi)
	var before map[string]float64
	if rec != nil {
		var err error
		if before, err = w.scrape(ctx); err != nil {
			return passOut{}, err
		}
	}
	jobs := make([]job, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	a0 := allocBytes()
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				jobs[i] = w.do(ctx, reqs[i], rec != nil)
			}
		}()
	}
	wg.Wait()
	p := passOut{wall: time.Since(t0), alloc: allocBytes() - a0, counts: map[string]float64{}}
	if rec != nil {
		after, err := w.scrape(ctx)
		if err != nil {
			return passOut{}, err
		}
		for metric, k := range map[string]string{
			"server.cache_hits":       "cache_hits",
			"server.cache_misses":     "cache_misses",
			"server.detail_conflicts": "detail_conflicts",
		} {
			p.counts[metric] = after[k] - before[k]
		}
	}
	for i, q := range reqs {
		r := w.check(ctx, q, jobs[i], rec)
		r.pass, r.traced, r.lat = pi, rec != nil, jobs[i].lat
		p.ops = append(p.ops, r)
	}
	return p, nil
}

// check verifies a finished job: it must be done, its routes (fetched
// back) must pass the hard invariants and, for a hot circuit, hash as in
// set-up; a fractured job must carry its write-prep.
func (w *serviceMix) check(ctx context.Context, q request, j job, rec *recorder) opResult {
	r := opResult{key: q.key(), err: j.err, samples: j.samples}
	if r.samples == nil {
		r.samples = map[string]float64{}
	}
	if r.err != nil {
		return r
	}
	v := j.view
	if v.State != server.StateDone || v.Summary == nil {
		r.err = fmt.Errorf("job %s (%s) ended %s: %s", v.ID, q.key(), v.State, v.Error)
		return r
	}
	s := v.Summary
	r.counts = map[string]float64{
		"drc.failed_nets":    float64(s.FailedNets),
		"drc.short_polygons": float64(s.ShortPolygons),
		"drc.via_violations": float64(s.ViaViolations),
		"drc.wirelength":     float64(s.Wirelength),
		"server.polls":       float64(j.polls),
		"server.jobs":        1,
	}
	var text []byte
	if err := w.call(ctx, http.MethodGet, "/v1/jobs/"+v.ID+"/routes", nil, &text); err != nil {
		r.err = err
		return r
	}
	t0 := time.Now()
	routes, err := nlio.ReadRoutes(bytes.NewReader(text))
	r.samples["nlio.read_ms"] = ms(time.Since(t0))
	if err != nil {
		r.err = err
		return r
	}
	hash, samples, err := verify(stitchroute.Generate(q.spec), routes, s.FailedNets)
	for k, x := range samples {
		r.samples[k] = x
	}
	r.hash = hash
	if want, ok := w.hotHash[q.spec.Name]; ok && q.hot && hash != want && err == nil {
		err = fmt.Errorf("cache hit routes %.12s differ from set-up's %.12s", hash, want)
	}
	if q.fracture {
		if wp := v.WritePrep; wp == nil || wp.Stencil == nil || wp.ShotsHash == "" {
			err = errors.Join(err, errors.New("fractured job carries no write-prep"))
		} else {
			r.hash += "/" + wp.ShotsHash
			r.counts["fracture.shots"] = float64(wp.Shots)
			r.counts["stencil.write_time"] = wp.Stencil.CPTime
			r.counts["stencil.candidates"] = float64(wp.Stencil.Candidates)
			r.counts["stencil.characters"] = float64(wp.Stencil.Characters)
		}
	}
	if err != nil {
		r.err = fmt.Errorf("job %s (%s): %w", v.ID, q.key(), err)
	}

	r.samples["server.submit_ms"] = ms(j.post1.Sub(j.post0))
	r.samples["server.overhead_ms"] = ms(j.lat) - ms(v.Finished.Sub(v.Created))
	if v.CacheHit {
		r.samples["server.hit_ms"] = ms(j.lat)
	} else {
		r.samples["server.queue_wait_ms"] = ms(v.Started.Sub(v.Created))
		r.samples["server.run_ms"] = ms(v.Finished.Sub(*v.Started))
		r.samples["server.stage_global_s"] = s.StageSeconds["global"]
		r.samples["server.stage_detail_s"] = s.StageSeconds["detail"]
	}
	if rec != nil {
		// The server's intervals, clipped so they neither overlap the
		// submit round trip nor each other.
		op, root := rec.beginAt("op", j.post0, j.end)
		rec.add(op, root, "server.submit", j.post0, j.post1)
		queued := later(v.Created, j.post1)
		if v.Started.After(queued) {
			rec.add(op, root, "server.queue_wait", queued, *v.Started)
		}
		if run := later(*v.Started, j.post1); v.Finished.After(run) {
			rec.add(op, root, "server.run", run, *v.Finished)
		}
		addProfile(&r, rec.profile(op))
	}
	return r
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

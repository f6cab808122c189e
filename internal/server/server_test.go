package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stitchroute/internal/core"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
)

// tinyCircuit returns an nlio circuit that routes in well under a second.
func tinyCircuit(name string) string {
	return fmt.Sprintf("circuit %s\ngrid 60 60 3\nnet a 3,3 20,20\nnet b 5,40 40,5\nnet c 50,50 12,33\n", name)
}

// blockingRoute routes normally, except circuits named "block" park on
// the context until it is cancelled — making cancellation and timeout
// tests deterministic while exercising the real error plumbing shape.
func blockingRoute(ctx context.Context, c *netlist.Circuit, cfg core.Config) (*core.Result, error) {
	if c.Name == "block" {
		<-ctx.Done()
		return nil, fmt.Errorf("stub: %w: %w", core.ErrCancelled, ctx.Err())
	}
	return core.RouteContext(ctx, c, cfg)
}

type testServer struct {
	*Server
	hts *httptest.Server
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	s := New(cfg)
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return &testServer{Server: s, hts: hts}
}

func (ts *testServer) do(t *testing.T, method, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.hts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.hts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// submit posts a job and decodes the response.
func (ts *testServer) submit(t *testing.T, req JobRequest, wantCode int) JobView {
	t.Helper()
	resp, data := ts.do(t, "POST", "/v1/jobs", req)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST /v1/jobs = %d, want %d: %s", resp.StatusCode, wantCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("bad job response %q: %v", data, err)
	}
	return v
}

// waitState polls the job until it reaches want (failing on a different
// terminal state, or after 10s).
func (ts *testServer) waitState(t *testing.T, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, data := ts.do(t, "GET", "/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job = %d: %s", resp.StatusCode, data)
		}
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s reached %q (error %q), want %q", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, v.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitPollRoutesSVG(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	v := ts.submit(t, JobRequest{Circuit: tinyCircuit("tiny")}, http.StatusAccepted)
	if v.State != StateQueued && v.State != StateRunning && v.State != StateDone {
		t.Fatalf("fresh job state = %q", v.State)
	}
	if v.Nets != 3 {
		t.Errorf("nets = %d, want 3", v.Nets)
	}

	done := ts.waitState(t, v.ID, StateDone)
	if done.Summary == nil {
		t.Fatal("done job has no summary")
	}
	if done.Summary.Routability != 100 {
		t.Errorf("routability = %v, want 100", done.Summary.Routability)
	}
	for _, stage := range []string{"global", "layer", "track", "detail", "drc"} {
		if _, ok := done.Summary.StageSeconds[stage]; !ok {
			t.Errorf("stageSeconds missing %q: %v", stage, done.Summary.StageSeconds)
		}
	}
	if done.Summary.DetailConnects == 0 || done.Summary.DetailExpansions == 0 {
		t.Errorf("summary search counts = %d/%d, want nonzero",
			done.Summary.DetailConnects, done.Summary.DetailExpansions)
	}
	if done.CacheHit {
		t.Error("first submission reported as cache hit")
	}

	resp, data := ts.do(t, "GET", "/v1/jobs/"+v.ID+"/routes", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET routes = %d: %s", resp.StatusCode, data)
	}
	routes, err := nlio.ReadRoutes(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("routes output does not reparse: %v", err)
	}
	if len(routes) != 3 {
		t.Errorf("routes = %d nets, want 3", len(routes))
	}

	resp, data = ts.do(t, "GET", "/v1/jobs/"+v.ID+"/svg", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET svg = %d", resp.StatusCode)
	}
	if !bytes.Contains(data, []byte("<svg")) {
		t.Error("svg output missing <svg")
	}
}

// TestUploadTextNotRetained checks that a finished upload job keeps the
// parsed circuit but not the upload text, and that dropping the text
// changes neither the job's view nor its routes: they match a direct
// route of the same circuit, and resubmitting the text still hits the
// cache.
func TestUploadTextNotRetained(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	text := tinyCircuit("upload")
	v := ts.submit(t, JobRequest{Circuit: text, Track: "graph"}, http.StatusAccepted)
	done := ts.waitState(t, v.ID, StateDone)

	ts.mu.Lock()
	j := ts.jobs[v.ID]
	ts.mu.Unlock()
	j.mu.Lock()
	kept := j.req.Circuit
	j.mu.Unlock()
	if kept != "" {
		t.Errorf("finished job retains %d bytes of upload text", len(kept))
	}
	if done.Circuit != "upload" || done.Nets != 3 || done.Pins != 6 || done.Mode != "stitch" || done.Track != "graph" {
		t.Errorf("view = %+v, want circuit upload, 3 nets, 6 pins, mode stitch, track graph", done)
	}

	c, err := nlio.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.StitchAware()
	cfg.TrackAlgo = j.cfg.TrackAlgo
	res, err := core.Route(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := nlio.WriteRoutes(&want, res.Routes); err != nil {
		t.Fatal(err)
	}
	resp, got := ts.do(t, "GET", "/v1/jobs/"+v.ID+"/routes", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("GET routes = %d, %d bytes; want 200 and the direct route's %d bytes", resp.StatusCode, len(got), want.Len())
	}

	hit := ts.submit(t, JobRequest{Circuit: text, Track: "graph"}, http.StatusOK)
	if !hit.CacheHit {
		t.Error("resubmitting the upload text missed the cache")
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 4})
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct circuit names give distinct cache keys, so every
			// job actually routes.
			v := ts.submit(t, JobRequest{Circuit: tinyCircuit(fmt.Sprintf("c%d", i))}, http.StatusAccepted)
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		ts.waitState(t, id, StateDone)
	}
}

func TestCancelRunningJob(t *testing.T) {
	cfg := Config{Workers: 1}
	cfg.route = blockingRoute
	ts := newTestServer(t, cfg)

	v := ts.submit(t, JobRequest{Circuit: tinyCircuit("block")}, http.StatusAccepted)
	ts.waitState(t, v.ID, StateRunning)

	resp, data := ts.do(t, "DELETE", "/v1/jobs/"+v.ID, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running job = %d: %s", resp.StatusCode, data)
	}
	got := ts.waitState(t, v.ID, StateCancelled)
	if !strings.Contains(got.Error, "cancelled") {
		t.Errorf("cancelled job error = %q", got.Error)
	}

	// The single worker must be free again: a fresh job completes.
	v2 := ts.submit(t, JobRequest{Circuit: tinyCircuit("after")}, http.StatusAccepted)
	ts.waitState(t, v2.ID, StateDone)

	// Cancelling a terminal job conflicts.
	resp, _ = ts.do(t, "DELETE", "/v1/jobs/"+v.ID, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE cancelled job = %d, want 409", resp.StatusCode)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 4}
	cfg.route = blockingRoute
	ts := newTestServer(t, cfg)

	blocker := ts.submit(t, JobRequest{Circuit: tinyCircuit("block")}, http.StatusAccepted)
	ts.waitState(t, blocker.ID, StateRunning)
	queued := ts.submit(t, JobRequest{Circuit: tinyCircuit("waiting")}, http.StatusAccepted)

	// Routes of an unfinished job conflict.
	resp, _ := ts.do(t, "GET", "/v1/jobs/"+queued.ID+"/routes", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("GET routes of queued job = %d, want 409", resp.StatusCode)
	}

	resp, data := ts.do(t, "DELETE", "/v1/jobs/"+queued.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE queued job = %d: %s", resp.StatusCode, data)
	}
	ts.waitState(t, queued.ID, StateCancelled)

	// Unblock the worker; the cancelled job must be skipped, not run.
	resp, _ = ts.do(t, "DELETE", "/v1/jobs/"+blocker.ID, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE blocker = %d", resp.StatusCode)
	}
	ts.waitState(t, blocker.ID, StateCancelled)
	after := ts.submit(t, JobRequest{Circuit: tinyCircuit("after")}, http.StatusAccepted)
	ts.waitState(t, after.ID, StateDone)
	if got := ts.waitState(t, queued.ID, StateCancelled); got.State != StateCancelled {
		t.Errorf("queued-then-cancelled job = %q", got.State)
	}
}

func TestTimeoutExpiry(t *testing.T) {
	cfg := Config{Workers: 1}
	cfg.route = blockingRoute
	ts := newTestServer(t, cfg)

	v := ts.submit(t, JobRequest{Circuit: tinyCircuit("block"), Timeout: "50ms"}, http.StatusAccepted)
	got := ts.waitState(t, v.ID, StateFailed)
	if !strings.Contains(got.Error, "timeout") {
		t.Errorf("timed-out job error = %q, want mention of timeout", got.Error)
	}
	if got.Timeout != "50ms" {
		t.Errorf("job timeout echoed as %q", got.Timeout)
	}
}

// metricValue extracts one "name value" line from /metrics.
func metricValue(t *testing.T, body, name string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return rest
		}
	}
	t.Fatalf("metric %q missing from:\n%s", name, body)
	return ""
}

func TestCacheHitOnResubmission(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	req := JobRequest{Circuit: tinyCircuit("cached")}

	first := ts.submit(t, req, http.StatusAccepted)
	ts.waitState(t, first.ID, StateDone)

	// Identical resubmission: born done, served from cache (200, not 202).
	second := ts.submit(t, req, http.StatusOK)
	if second.State != StateDone || !second.CacheHit {
		t.Fatalf("resubmission state=%q cacheHit=%v, want done from cache", second.State, second.CacheHit)
	}
	if second.Summary == nil || second.Summary.Routability != 100 {
		t.Error("cached job missing its summary")
	}

	_, data := ts.do(t, "GET", "/metrics", nil)
	if got := metricValue(t, string(data), "cache_hits"); got != "1" {
		t.Errorf("cache_hits = %s, want 1", got)
	}

	// A different config is a different key.
	third := ts.submit(t, JobRequest{Circuit: tinyCircuit("cached"), Mode: "baseline"}, http.StatusAccepted)
	ts.waitState(t, third.ID, StateDone)

	// noCache skips the lookup even on an identical submission.
	fourth := ts.submit(t, JobRequest{Circuit: tinyCircuit("cached"), NoCache: true}, http.StatusAccepted)
	if fourth.CacheHit {
		t.Error("noCache submission served from cache")
	}
	ts.waitState(t, fourth.ID, StateDone)

	// The cached geometry is identical to the originally routed one.
	_, r1 := ts.do(t, "GET", "/v1/jobs/"+first.ID+"/routes", nil)
	_, r2 := ts.do(t, "GET", "/v1/jobs/"+second.ID+"/routes", nil)
	if !bytes.Equal(r1, r2) {
		t.Error("cache-hit job serves different geometry")
	}
}

// TestWorkersField pins that jobs no longer carry a detailed-routing
// worker count: the detailed router is sequential, and the request
// decoder rejects the old field as unknown.
func TestWorkersField(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	body := fmt.Sprintf(`{"circuit":%q,"workers":2}`, tinyCircuit("w"))
	resp, err := ts.hts.Client().Post(ts.hts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("job with workers = %d, want 400: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), `unknown field \"workers\"`) {
		t.Errorf("error does not name the unknown field: %s", data)
	}
}

func TestCacheLRUBound(t *testing.T) {
	c := newResultCache(2)
	res := &core.Result{}
	c.put("a", res)
	c.put("b", res)
	if _, ok := c.get("a"); !ok { // refresh a
		t.Fatal("a missing")
	}
	c.put("c", res) // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("refreshed entry a evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c missing")
	}
	hits, misses, entries := c.stats()
	if hits != 3 || misses != 1 || entries != 2 {
		t.Errorf("stats = %d/%d/%d, want 3/1/2", hits, misses, entries)
	}
}

func TestMalformedRequests(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"invalid json", `{`, http.StatusBadRequest},
		{"unknown field", `{"benchmark":"S9234","bogus":1}`, http.StatusBadRequest},
		{"neither source", `{}`, http.StatusBadRequest},
		{"both sources", `{"benchmark":"S9234","circuit":"circuit x\ngrid 60 60 3\nnet a 1,1 2,2\n"}`, http.StatusBadRequest},
		{"unknown benchmark", `{"benchmark":"NOPE"}`, http.StatusBadRequest},
		{"bad nlio", `{"circuit":"grid what\n"}`, http.StatusBadRequest},
		{"net before grid", `{"circuit":"net a 1,1 2,2\n"}`, http.StatusBadRequest},
		{"unknown mode", `{"benchmark":"S9234","mode":"quantum"}`, http.StatusBadRequest},
		{"unknown track", `{"benchmark":"S9234","track":"magic"}`, http.StatusBadRequest},
		{"bad timeout", `{"benchmark":"S9234","timeout":"soon"}`, http.StatusBadRequest},
		{"negative timeout", `{"benchmark":"S9234","timeout":"-5s"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.hts.Client().Post(ts.hts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d (%s)", resp.StatusCode, tc.want, data)
			}
			var e map[string]string
			if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
				t.Errorf("error body not {\"error\": ...}: %s", data)
			}
		})
	}

	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/routes", "/v1/jobs/job-999999/svg"} {
		resp, _ := ts.do(t, "GET", path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	resp, _ := ts.do(t, "DELETE", "/v1/jobs/job-999999", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", resp.StatusCode)
	}
}

func TestQueueFull(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 1}
	cfg.route = blockingRoute
	ts := newTestServer(t, cfg)

	blocker := ts.submit(t, JobRequest{Circuit: tinyCircuit("block")}, http.StatusAccepted)
	ts.waitState(t, blocker.ID, StateRunning)
	ts.submit(t, JobRequest{Circuit: tinyCircuit("q1")}, http.StatusAccepted)

	resp, data := ts.do(t, "POST", "/v1/jobs", JobRequest{Circuit: tinyCircuit("q2")})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to full queue = %d: %s", resp.StatusCode, data)
	}
	// The rejected job must not appear in the listing.
	_, data = ts.do(t, "GET", "/v1/jobs", nil)
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Errorf("job list has %d entries, want 2", len(list.Jobs))
	}
	resp, _ = ts.do(t, "DELETE", "/v1/jobs/"+blocker.ID, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE blocker = %d", resp.StatusCode)
	}
}

// TestQueueFullConcurrentSubmits hammers a full queue from many
// goroutines: rejected submissions must never corrupt the job index
// (regression: the old rollback truncated s.order, which could remove a
// concurrently accepted job's id and leave a dangling one, making
// handleList panic).
func TestQueueFullConcurrentSubmits(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 1}
	cfg.route = blockingRoute
	ts := newTestServer(t, cfg)

	blocker := ts.submit(t, JobRequest{Circuit: tinyCircuit("block")}, http.StatusAccepted)
	ts.waitState(t, blocker.ID, StateRunning)

	const n = 32
	var accepted int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := ts.do(t, "POST", "/v1/jobs", JobRequest{Circuit: tinyCircuit(fmt.Sprintf("h%d", i))})
			switch resp.StatusCode {
			case http.StatusAccepted:
				atomic.AddInt64(&accepted, 1)
			case http.StatusServiceUnavailable:
			default:
				t.Errorf("concurrent submit = %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	// The listing must stay consistent: exactly blocker + accepted jobs,
	// every entry intact (a dangling order id would panic handleList).
	resp, data := ts.do(t, "GET", "/v1/jobs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs = %d: %s", resp.StatusCode, data)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if got, want := len(list.Jobs), int(accepted)+1; got != want {
		t.Errorf("job list has %d entries, want %d (1 blocker + %d accepted)", got, want, accepted)
	}
	for _, v := range list.Jobs {
		if v.ID == "" {
			t.Error("listing contains a corrupted job entry")
		}
	}
	resp, _ = ts.do(t, "DELETE", "/v1/jobs/"+blocker.ID, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE blocker = %d", resp.StatusCode)
	}
}

func TestFinishedJobRetention(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, MaxFinished: 2})

	var ids []string
	for i := 0; i < 4; i++ {
		v := ts.submit(t, JobRequest{Circuit: tinyCircuit(fmt.Sprintf("r%d", i))}, http.StatusAccepted)
		ts.waitState(t, v.ID, StateDone)
		ids = append(ids, v.ID)
	}

	// Eviction runs on the worker right after each job turns terminal;
	// poll briefly for the listing to settle at the cap.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, data := ts.do(t, "GET", "/v1/jobs", nil)
		var list struct {
			Jobs []JobView `json:"jobs"`
		}
		if err := json.Unmarshal(data, &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) == 2 {
			// The two newest jobs survive, oldest-first eviction.
			if list.Jobs[0].ID != ids[2] || list.Jobs[1].ID != ids[3] {
				t.Fatalf("retained jobs = [%s %s], want [%s %s]",
					list.Jobs[0].ID, list.Jobs[1].ID, ids[2], ids[3])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job list stuck at %d entries, want 2", len(list.Jobs))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Evicted ids are gone for every job endpoint.
	for _, path := range []string{"/v1/jobs/" + ids[0], "/v1/jobs/" + ids[0] + "/routes", "/v1/jobs/" + ids[0] + "/svg"} {
		resp, _ := ts.do(t, "GET", path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s after eviction = %d, want 404", path, resp.StatusCode)
		}
	}

	_, data := ts.do(t, "GET", "/metrics", nil)
	if got := metricValue(t, string(data), "jobs_evicted"); got != "2" {
		t.Errorf("jobs_evicted = %s, want 2", got)
	}
	if got := metricValue(t, string(data), "jobs_total"); got != "2" {
		t.Errorf("jobs_total = %s, want 2", got)
	}
}

func TestShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2})
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		body, _ := json.Marshal(JobRequest{Circuit: tinyCircuit(fmt.Sprintf("drain%d", i))})
		resp, err := hts.Client().Post(hts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Every accepted job was drained to a terminal state.
	s.mu.Lock()
	for _, id := range ids {
		st, _ := s.jobs[id].snapshot()
		if !st.Terminal() {
			t.Errorf("job %s left in %q after shutdown", id, st)
		}
	}
	s.mu.Unlock()

	// Post-shutdown submissions are refused.
	body, _ := json.Marshal(JobRequest{Circuit: tinyCircuit("late")})
	resp, err := hts.Client().Post(hts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit = %d, want 503", resp.StatusCode)
	}
}

func TestBenchmarksHealthzMetrics(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})

	resp, data := ts.do(t, "GET", "/v1/benchmarks", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET benchmarks = %d", resp.StatusCode)
	}
	var b struct {
		Benchmarks []struct {
			Name  string `json:"name"`
			Suite string `json:"suite"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Benchmarks) != 14 {
		t.Errorf("benchmarks = %d, want 14", len(b.Benchmarks))
	}

	resp, data = ts.do(t, "GET", "/healthz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "ok") {
		t.Errorf("healthz = %d %q", resp.StatusCode, data)
	}

	_, data = ts.do(t, "GET", "/metrics", nil)
	for _, key := range []string{
		"uptime_seconds", "workers", "jobs_total", "jobs_queued", "jobs_running",
		"jobs_done", "jobs_failed", "jobs_cancelled", "queue_depth", "queue_capacity",
		"cache_hits", "cache_misses", "cache_entries", "cache_capacity",
		"stage_seconds_global", "stage_seconds_layer", "stage_seconds_track",
		"stage_seconds_detail", "stage_seconds_drc", "route_seconds_total",
	} {
		metricValue(t, string(data), key)
	}
	if got := metricValue(t, string(data), "workers"); got != "1" {
		t.Errorf("workers metric = %s, want 1", got)
	}
}

// TestDefaultPoolSize pins the zero-config pool size: one job worker per
// CPU, reported on /metrics.
func TestDefaultPoolSize(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, data := ts.do(t, "GET", "/metrics", nil)
	if got, want := metricValue(t, string(data), "workers"), fmt.Sprint(runtime.NumCPU()); got != want {
		t.Errorf("workers metric = %s, want %s (runtime.NumCPU)", got, want)
	}
}

// TestRealCancellationEndToEnd exercises the whole stack without the
// stub: a benchmark job is cancelled mid-route and the real context
// plumbing aborts it.
func TestRealCancellationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a full benchmark in -short mode")
	}
	ts := newTestServer(t, Config{Workers: 1})
	v := ts.submit(t, JobRequest{Benchmark: "S38417"}, http.StatusAccepted)
	ts.waitState(t, v.ID, StateRunning)
	resp, _ := ts.do(t, "DELETE", "/v1/jobs/"+v.ID, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	start := time.Now()
	ts.waitState(t, v.ID, StateCancelled)
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
}

func TestWritePrepStage(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	v := ts.submit(t, JobRequest{Circuit: tinyCircuit("wp"), Fracture: "lshape", Stencil: true},
		http.StatusAccepted)
	done := ts.waitState(t, v.ID, StateDone)
	wp := done.WritePrep
	if wp == nil {
		t.Fatal("done job has no writePrep")
	}
	if wp.Mode != "lshape" || wp.Shots == 0 || wp.RectShots < wp.Shots {
		t.Fatalf("writePrep = %+v", wp)
	}
	if wp.ShotsHash == "" {
		t.Error("writePrep missing shots hash")
	}
	if wp.Stencil == nil {
		t.Fatal("writePrep missing stencil summary")
	}
	if wp.Stencil.VSBTime <= 0 || wp.Stencil.CPTime > wp.Stencil.VSBTime {
		t.Errorf("stencil write-time model inconsistent: %+v", wp.Stencil)
	}

	// A cache hit recomputes write-prep inline and is born done with the
	// identical shot hash (fracturing is deterministic).
	hit := ts.submit(t, JobRequest{Circuit: tinyCircuit("wp"), Fracture: "lshape", Stencil: true},
		http.StatusOK)
	if !hit.CacheHit {
		t.Fatal("resubmission missed the cache")
	}
	if hit.WritePrep == nil || hit.WritePrep.ShotsHash != wp.ShotsHash {
		t.Fatalf("cache-hit writePrep = %+v, want hash %s", hit.WritePrep, wp.ShotsHash)
	}

	// Jobs without the fracture field carry no write-prep stage.
	plain := ts.submit(t, JobRequest{Circuit: tinyCircuit("plain")}, http.StatusAccepted)
	if done := ts.waitState(t, plain.ID, StateDone); done.WritePrep != nil {
		t.Error("plain job unexpectedly has writePrep")
	}
}

func TestWritePrepValidation(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1})
	resp, data := ts.do(t, "POST", "/v1/jobs",
		JobRequest{Circuit: tinyCircuit("x"), Fracture: "diagonal"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad fracture mode accepted: %d %s", resp.StatusCode, data)
	}
	resp, data = ts.do(t, "POST", "/v1/jobs",
		JobRequest{Circuit: tinyCircuit("x"), Stencil: true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stencil without fracture accepted: %d %s", resp.StatusCode, data)
	}
}

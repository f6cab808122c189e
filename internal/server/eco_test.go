package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"stitchroute/internal/core"
	"stitchroute/internal/eco"
	"stitchroute/internal/geom"
	"stitchroute/internal/harness"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/plan"
)

// ecoSubmit posts an ECO fork and decodes the response.
func (ts *testServer) ecoSubmit(t *testing.T, parent string, req ECORequest, wantCode int) JobView {
	t.Helper()
	resp, data := ts.do(t, "POST", "/v1/jobs/"+parent+"/eco", req)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST eco = %d, want %d: %s", resp.StatusCode, wantCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("bad eco response %q: %v", data, err)
	}
	return v
}

func TestECOForkReplay(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	parent := ts.submit(t, JobRequest{Circuit: tinyCircuit("tiny")}, http.StatusAccepted)
	ts.waitState(t, parent.ID, StateDone)

	// An empty edit script in replay mode reproduces the parent result
	// byte-for-byte, so it lands on the parent's own cache slot: the
	// fork is born done as a cache hit.
	same := ts.ecoSubmit(t, parent.ID, ECORequest{}, http.StatusOK)
	if !same.CacheHit {
		t.Error("empty-script replay fork did not hit the parent's cache slot")
	}
	if same.ECO == nil || same.ECO.Parent != parent.ID || same.ECO.Mode != "replay" {
		t.Fatalf("eco view = %+v, want parent %s mode replay", same.ECO, parent.ID)
	}

	// A real edit forks a new job that routes incrementally.
	edits := []eco.Edit{{Op: eco.OpMovePin, ID: 0, Pin: 0, X: 10, Y: 10}}
	v := ts.ecoSubmit(t, parent.ID, ECORequest{Edits: edits}, http.StatusAccepted)
	if v.ECO == nil || v.ECO.Parent != parent.ID || v.ECO.EditedNets != 1 {
		t.Fatalf("eco view = %+v, want parent %s with 1 edited net", v.ECO, parent.ID)
	}
	done := ts.waitState(t, v.ID, StateDone)
	if done.Summary == nil {
		t.Fatal("done eco job has no summary")
	}
	if done.Summary.Routability != 100 {
		t.Errorf("eco routability = %v, want 100", done.Summary.Routability)
	}
	if done.ECO == nil || done.ECO.Fallback {
		t.Fatalf("eco stats = %+v, want non-fallback replay", done.ECO)
	}

	// Replay results share the cold route's content-addressed cache:
	// resubmitting the same edits is a born-done cache hit.
	again := ts.ecoSubmit(t, parent.ID, ECORequest{Edits: edits}, http.StatusOK)
	if !again.CacheHit {
		t.Error("identical replay fork was not served from the cache")
	}

	// The fork serves geometry like any other job.
	resp, data := ts.do(t, "GET", "/v1/jobs/"+v.ID+"/routes", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET eco routes = %d: %s", resp.StatusCode, data)
	}
}

// TestECOForkKeepsPlace: a fork reroutes the parent's placed circuit, so
// its request must keep reporting place.
func TestECOForkKeepsPlace(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	parent := ts.submit(t, JobRequest{Circuit: tinyCircuit("placed"), Place: true}, http.StatusAccepted)
	if !ts.waitState(t, parent.ID, StateDone).Place {
		t.Fatal("parent job does not report place")
	}
	edits := []eco.Edit{{Op: eco.OpMovePin, ID: 0, Pin: 0, X: 10, Y: 10}}
	v := ts.ecoSubmit(t, parent.ID, ECORequest{Edits: edits}, http.StatusAccepted)
	if !v.Place {
		t.Error("fork of a placed job reports place: false")
	}
	if done := ts.waitState(t, v.ID, StateDone); !done.Place {
		t.Error("done fork of a placed job reports place: false")
	}
}

func TestECOForkPatch(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	parent := ts.submit(t, JobRequest{Circuit: tinyCircuit("tiny")}, http.StatusAccepted)
	ts.waitState(t, parent.ID, StateDone)

	edits := []eco.Edit{{Op: eco.OpMovePin, ID: 1, Pin: 0, X: 8, Y: 35}}
	v := ts.ecoSubmit(t, parent.ID, ECORequest{Edits: edits, Mode: "patch", Margin: 4}, http.StatusAccepted)
	done := ts.waitState(t, v.ID, StateDone)
	if done.ECO == nil || done.ECO.Mode != "patch" || done.ECO.Fallback {
		t.Fatalf("eco view = %+v, want non-fallback patch", done.ECO)
	}
	if done.ECO.DetailReused == 0 {
		t.Error("patch fork reused no detail routes on an unrelated-net edit")
	}
	if done.Summary == nil || done.Summary.Routability != 100 {
		t.Fatalf("patch summary = %+v, want 100%% routability", done.Summary)
	}

	// Patch results never populate the cold-route cache: the identical
	// fork runs again instead of being born done.
	again := ts.ecoSubmit(t, parent.ID, ECORequest{Edits: edits, Mode: "patch", Margin: 4}, http.StatusAccepted)
	if again.CacheHit {
		t.Error("patch fork was served from the cold-route cache")
	}
	ts.waitState(t, again.ID, StateDone)
}

func TestECOForkChained(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	parent := ts.submit(t, JobRequest{Circuit: tinyCircuit("tiny")}, http.StatusAccepted)
	ts.waitState(t, parent.ID, StateDone)

	// Fork the fork: a done ECO job is a first-class parent.
	v1 := ts.ecoSubmit(t, parent.ID, ECORequest{
		Edits: []eco.Edit{{Op: eco.OpMovePin, ID: 0, Pin: 0, X: 10, Y: 10}},
	}, http.StatusAccepted)
	ts.waitState(t, v1.ID, StateDone)
	v2 := ts.ecoSubmit(t, v1.ID, ECORequest{
		Edits: []eco.Edit{{Op: eco.OpDelete, ID: 2}},
	}, http.StatusAccepted)
	done := ts.waitState(t, v2.ID, StateDone)
	if done.Nets != 2 {
		t.Errorf("chained fork nets = %d, want 2", done.Nets)
	}
	if done.ECO == nil || done.ECO.Parent != v1.ID {
		t.Fatalf("chained eco view = %+v, want parent %s", done.ECO, v1.ID)
	}
}

// TestECOForkReleasesParent checks that a fork drops its run inputs,
// the parent's circuit and result among them, once it is terminal: a
// fork that ran to done, one born done as a cache hit, and one cancelled
// while queued.
func TestECOForkReleasesParent(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, route: blockingRoute})
	held := func(id string) []string {
		t.Helper()
		ts.mu.Lock()
		j := ts.jobs[id]
		ts.mu.Unlock()
		j.mu.Lock()
		defer j.mu.Unlock()
		var out []string
		if j.ecoRun != nil {
			out = append(out, "ecoRun")
		}
		if j.ecoScript != nil {
			out = append(out, "ecoScript")
		}
		if j.ecoBase != nil {
			out = append(out, "ecoBase")
		}
		if j.ecoFrom != nil {
			out = append(out, "ecoFrom")
		}
		return out
	}
	parent := ts.submit(t, JobRequest{Circuit: tinyCircuit("tiny")}, http.StatusAccepted)
	ts.waitState(t, parent.ID, StateDone)
	edits := []eco.Edit{{Op: eco.OpMovePin, ID: 0, Pin: 0, X: 10, Y: 10}}

	done := ts.ecoSubmit(t, parent.ID, ECORequest{Edits: edits}, http.StatusAccepted)
	ts.waitState(t, done.ID, StateDone)
	if h := held(done.ID); h != nil {
		t.Errorf("done fork still holds %v", h)
	}
	hit := ts.ecoSubmit(t, parent.ID, ECORequest{Edits: edits}, http.StatusOK)
	if h := held(hit.ID); h != nil {
		t.Errorf("cache-hit fork still holds %v", h)
	}

	blocker := ts.submit(t, JobRequest{Circuit: tinyCircuit("block")}, http.StatusAccepted)
	ts.waitState(t, blocker.ID, StateRunning)
	queued := ts.ecoSubmit(t, parent.ID, ECORequest{Edits: edits, Mode: "patch"}, http.StatusAccepted)
	if resp, data := ts.do(t, "DELETE", "/v1/jobs/"+queued.ID, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE queued fork = %d: %s", resp.StatusCode, data)
	}
	if h := held(queued.ID); h != nil {
		t.Errorf("fork cancelled while queued still holds %v", h)
	}
	if resp, _ := ts.do(t, "DELETE", "/v1/jobs/"+blocker.ID, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE blocker = %d", resp.StatusCode)
	}
	ts.waitState(t, blocker.ID, StateCancelled)
}

func TestECOForkValidation(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2, route: blockingRoute})
	parent := ts.submit(t, JobRequest{Circuit: tinyCircuit("tiny")}, http.StatusAccepted)
	ts.waitState(t, parent.ID, StateDone)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"editz":[]}`, http.StatusBadRequest},
		{"unknown mode", `{"mode":"fast"}`, http.StatusBadRequest},
		{"negative margin", `{"margin":-1}`, http.StatusBadRequest},
		{"missing net", `{"edits":[{"op":"delete","id":99}]}`, http.StatusBadRequest},
		{"out of fabric", `{"edits":[{"op":"movepin","id":0,"pin":0,"x":999,"y":3}]}`, http.StatusBadRequest},
		{"bad timeout", `{"timeout":"soon"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req, err := http.NewRequest("POST", ts.hts.URL+"/v1/jobs/"+parent.ID+"/eco", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.hts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Unknown parent job.
	resp, _ := ts.do(t, "POST", "/v1/jobs/nope/eco", ECORequest{})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown parent: status = %d, want 404", resp.StatusCode)
	}

	// Parent not done yet: the stub parks "block" circuits on the
	// context, so the job is durably running when the fork arrives.
	running := ts.submit(t, JobRequest{Circuit: tinyCircuit("block")}, http.StatusAccepted)
	ts.waitState(t, running.ID, StateRunning)
	resp, data := ts.do(t, "POST", "/v1/jobs/"+running.ID+"/eco", ECORequest{})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("running parent: status = %d, want 409: %s", resp.StatusCode, data)
	}
	resp, _ = ts.do(t, "DELETE", "/v1/jobs/"+running.ID, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("cancel running parent = %d, want 202", resp.StatusCode)
	}
}

// TestConcurrentColdAndPatch runs cold routes and patch forks at once on
// two workers. Patch routers borrow their arenas from one pool, so
// concurrent patches reuse each other's arenas while cold routes run
// beside them; every job's routes must equal the same job run on its
// own. make race-fast
// runs it under the race detector.
func TestConcurrentColdAndPatch(t *testing.T) {
	gen := func(seed int64) (string, *netlist.Circuit) {
		var b strings.Builder
		spec := harness.GenSpec{Name: fmt.Sprint("mix", seed), XTracks: 90, YTracks: 60, Layers: 3, Nets: 40, Spread: 8, Seed: seed}
		if err := nlio.Write(&b, harness.Generate(spec)); err != nil {
			t.Fatal(err)
		}
		c, err := nlio.Read(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		return b.String(), c
	}
	var req JobRequest
	cfg, _, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Workers: 2})
	parentText, pc := gen(1)
	parent := ts.submit(t, JobRequest{Circuit: parentText}, http.StatusAccepted)
	ts.waitState(t, parent.ID, StateDone)

	// Submit everything before computing any reference, so the jobs
	// overlap on the workers.
	type job struct {
		id   string
		want func() []plan.NetRoute
	}
	var jobs []job
	for k := 0; k < 3; k++ {
		text, c := gen(int64(10 + k))
		v := ts.submit(t, JobRequest{Circuit: text}, http.StatusAccepted)
		jobs = append(jobs, job{v.ID, func() []plan.NetRoute {
			res, err := core.Route(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Routes
		}})
		p := freePoint(pc, k)
		s := &eco.Script{Edits: []eco.Edit{{Op: eco.OpMovePin, ID: pc.Nets[5*k].ID, Pin: 0, X: p.X, Y: p.Y}}}
		f := ts.ecoSubmit(t, parent.ID, ECORequest{Edits: s.Edits, Mode: "patch"}, http.StatusAccepted)
		jobs = append(jobs, job{f.ID, func() []plan.NetRoute {
			pres, err := core.Route(pc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			er, err := eco.ReroutePatch(pres, pc, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return er.Routes
		}})
	}
	for _, j := range jobs {
		if v := ts.waitState(t, j.id, StateDone); v.ECO != nil && v.ECO.Fallback {
			t.Errorf("patch job %s fell back to a cold route", j.id)
		}
		_, got := ts.do(t, "GET", "/v1/jobs/"+j.id+"/routes", nil)
		var want bytes.Buffer
		if err := nlio.WriteRoutes(&want, j.want()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("job %s: routes differ from the same job run alone", j.id)
		}
	}
}

// freePoint returns the k-th grid point, scanning rows from the top,
// that no pin of c uses.
func freePoint(c *netlist.Circuit, k int) geom.Point {
	used := map[geom.Point]bool{}
	for _, n := range c.Nets {
		for _, p := range n.Pins {
			used[p.Point] = true
		}
	}
	for y := c.Fabric.YTracks - 1; ; y-- {
		for x := 0; x < c.Fabric.XTracks; x += 3 {
			if p := (geom.Point{X: x, Y: y}); !used[p] {
				if k == 0 {
					return p
				}
				k--
			}
		}
	}
}

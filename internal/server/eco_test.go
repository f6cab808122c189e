package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"stitchroute/internal/eco"
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

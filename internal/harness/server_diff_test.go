package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"stitchroute/internal/core"
	"stitchroute/internal/nlio"
	"stitchroute/internal/server"
)

// TestServerDifferentialRoute is the endpoint-level differential check:
// the same circuit is routed once in-process through core.Route and once
// through the full HTTP job pipeline (submit → worker pool → summary +
// routes endpoints), and the two results must agree exactly — same
// quality metrics, byte-identical geometry. Any divergence means the
// service layer distorts requests or results somewhere between the JSON
// boundary and the router. Set STITCHROUTE_HARNESS_DIFF=off to opt out
// (e.g. in sandboxes without loopback networking).
func TestServerDifferentialRoute(t *testing.T) {
	if os.Getenv("STITCHROUTE_HARNESS_DIFF") == "off" {
		t.Skip("disabled via STITCHROUTE_HARNESS_DIFF=off")
	}
	spec := GenSpec{XTracks: 90, YTracks: 90, Layers: 3, Nets: 50, Spread: 15, Seed: 7}
	circuit := Generate(spec)

	// In-process reference result.
	ref, refCheck, err := RouteAndCheck(Generate(spec), core.StitchAware())
	if err != nil {
		t.Fatal(err)
	}
	if v := refCheck.HardViolations(); len(v) != 0 {
		t.Fatalf("reference route violates invariants: %v", v)
	}

	srv := server.New(server.Config{Workers: 2, QueueDepth: 8})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var nl strings.Builder
	if err := nlio.Write(&nl, circuit); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"circuit": nl.String(), "mode": "stitch"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID      string          `json:"id"`
		State   string          `json:"state"`
		Summary *server.Summary `json:"summary"`
	}
	decodeJSON(t, resp, &view)
	if view.ID == "" {
		t.Fatal("submit returned no job id")
	}

	deadline := time.Now().Add(60 * time.Second)
	for view.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", view.State)
		}
		if view.State == "failed" || view.State == "cancelled" {
			t.Fatalf("job reached state %q", view.State)
		}
		time.Sleep(50 * time.Millisecond)
		r, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeJSON(t, r, &view)
	}
	if view.Summary == nil {
		t.Fatal("done job has no summary")
	}

	// Differential: the served quality record must equal the in-process
	// one, field by field.
	for _, bad := range Compare(view.Summary.Quality, ref.Quality()) {
		t.Errorf("served summary differs from the in-process route: %s", bad)
	}

	// The served geometry must be byte-identical to the in-process route.
	r, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/routes")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var local strings.Builder
	if err := nlio.WriteRoutes(&local, ref.Routes); err != nil {
		t.Fatal(err)
	}
	if string(served) != local.String() {
		t.Error("served routes differ from in-process routes (byte-level)")
	}

	// The round-tripped geometry must still pass the DRC audit against
	// the uploaded circuit (which travelled through nlio twice).
	back, err := nlio.ReadRoutes(bytes.NewReader(served))
	if err != nil {
		t.Fatal(err)
	}
	uploaded, err := nlio.Read(strings.NewReader(nl.String()))
	if err != nil {
		t.Fatal(err)
	}
	cr, err := CheckRoutes(uploaded, back, ref.FailedNets)
	if err != nil {
		t.Fatal(err)
	}
	if v := cr.HardViolations(); len(v) != 0 {
		t.Errorf("served geometry violates invariants after round trip: %v", v)
	}
}

func decodeJSON(t *testing.T, r *http.Response, v any) {
	t.Helper()
	defer r.Body.Close()
	if r.StatusCode >= 300 {
		b, _ := io.ReadAll(r.Body)
		t.Fatalf("HTTP %d: %s", r.StatusCode, b)
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

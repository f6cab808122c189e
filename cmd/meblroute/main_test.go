package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"stitchroute/internal/nlio"
	"stitchroute/internal/server"
)

const tinyCircuit = "circuit tiny\ngrid 60 60 3\nnet a 3,5 40,50\nnet b 10,10 20,44\nnet c 5,30 55,30\n"

// maskTimes zeroes the wall-clock fields of a summary, keeping the set
// of stages it reports.
func maskTimes(s *server.Summary) {
	s.CPUSeconds = 0
	for k := range s.StageSeconds {
		s.StageSeconds[k] = 0
	}
}

// serverJob routes the circuit as a meblserved job and returns its view
// once done.
func serverJob(t *testing.T, req server.JobRequest) server.JobView {
	t.Helper()
	s := server.New(server.Config{Workers: 1})
	hts := httptest.NewServer(s.Handler())
	defer func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v server.JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); !v.State.Terminal(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", v.ID, v.State)
		}
		resp, err := http.Get(hts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if v.State != server.StateDone || v.Summary == nil {
		t.Fatalf("server job %s: state %s, error %q", v.ID, v.State, v.Error)
	}
	return v
}

// TestJSONMatchesServer: meblroute -json reports the same summary and
// write-prep as a meblserved job on the same circuit.
func TestJSONMatchesServer(t *testing.T) {
	in := filepath.Join(t.TempDir(), "tiny.nlio")
	if err := os.WriteFile(in, []byte(tinyCircuit), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-in", in, "-json", "-fracture", "lshape", "-stencil"}, &stdout, &stderr); code != 0 {
		t.Fatalf("meblroute exit %d: %s", code, stderr.String())
	}
	var cli report
	dec := json.NewDecoder(&stdout)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cli); err != nil {
		t.Fatalf("decode -json output: %v", err)
	}

	job := serverJob(t, server.JobRequest{Circuit: tinyCircuit, Fracture: "lshape", Stencil: true})
	if cli.Circuit != job.Circuit || cli.Nets != job.Nets || cli.Pins != job.Pins {
		t.Errorf("cli circuit %s %d nets %d pins, server %s %d nets %d pins",
			cli.Circuit, cli.Nets, cli.Pins, job.Circuit, job.Nets, job.Pins)
	}
	if cli.Summary == nil {
		t.Fatal("-json output has no summary fields")
	}
	maskTimes(cli.Summary)
	maskTimes(job.Summary)
	if !reflect.DeepEqual(cli.Summary, job.Summary) {
		t.Errorf("summary differs:\ncli    %+v\nserver %+v", *cli.Summary, *job.Summary)
	}
	if cli.WritePrep == nil || cli.WritePrep.Stencil == nil {
		t.Fatalf("-json writePrep = %+v, want fracture and stencil", cli.WritePrep)
	}
	if !reflect.DeepEqual(cli.WritePrep, job.WritePrep) {
		t.Errorf("writePrep differs:\ncli    %+v\nserver %+v", *cli.WritePrep, *job.WritePrep)
	}
	if cli.ECO != nil {
		t.Errorf("eco block without -eco: %+v", cli.ECO)
	}
}

// TestBadOptions: option errors exit 2 before any routing.
func TestBadOptions(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "fast"},
		{"-track", "greedy"},
		{"-fracture", "diagonal"},
		{"-stencil"},
		{"-eco", "edits.json", "-eco-mode", "graft"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: stdout %q, stderr %q; want only an error", args, stdout.String(), stderr.String())
		}
	}
}

// TestECOBlock: -eco adds the server's ECO view to the -json output.
func TestECOBlock(t *testing.T) {
	dir := t.TempDir()
	in, edits := filepath.Join(dir, "tiny.nlio"), filepath.Join(dir, "edits.json")
	if err := os.WriteFile(in, []byte(tinyCircuit), 0o644); err != nil {
		t.Fatal(err)
	}
	script := `{"edits": [{"op": "movepin", "id": 1, "pin": 0, "x": 8, "y": 35, "layer": 1}]}`
	if err := os.WriteFile(edits, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"replay", "patch"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-in", in, "-json", "-eco", edits, "-eco-mode", mode}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: meblroute exit %d: %s", mode, code, stderr.String())
		}
		var out report
		if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
			t.Fatalf("%s: decode -json output: %v", mode, err)
		}
		ev := out.ECO
		if ev == nil || ev.Mode != mode || ev.EditedNets != 1 || ev.Fallback || ev.DetailRouted == 0 {
			t.Errorf("%s: eco block = %+v", mode, ev)
		}
	}
}

// TestCheckRoutesFile: -check audits a routes file with the full hard
// invariant battery. Primary1's own routes pass; one net's wire copied
// onto another net is a short, and the audit fails naming it.
func TestCheckRoutesFile(t *testing.T) {
	routesFile := filepath.Join(t.TempDir(), "p1.routes")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-circuit", "Primary1", "-routes", routesFile}, &stdout, &stderr); code != 0 {
		t.Fatalf("routing Primary1 exited %d: %s", code, stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-circuit", "Primary1", "-check", routesFile}, &stdout, &stderr); code != 0 {
		t.Fatalf("-check of Primary1's own routes exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}

	f, err := os.Open(routesFile)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := nlio.ReadRoutes(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	from, to := -1, -1
	for i, rt := range routes {
		if rt.Routed && len(rt.Wires) > 0 {
			if from < 0 {
				from = i
			} else {
				to = i
				break
			}
		}
	}
	if to < 0 {
		t.Fatal("Primary1 has fewer than two routed nets with wires")
	}
	routes[to].Wires = append(routes[to].Wires, routes[from].Wires[0])
	shorted := filepath.Join(t.TempDir(), "shorted.routes")
	out, err := os.Create(shorted)
	if err != nil {
		t.Fatal(err)
	}
	if err := nlio.WriteRoutes(out, routes); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"-circuit", "Primary1", "-check", shorted}, &stdout, &stderr); code != 1 {
		t.Fatalf("-check of shorted routes exited %d, want 1:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "cross-net shorted cells") {
		t.Errorf("-check output does not report the shorts:\n%s", stdout.String())
	}
}

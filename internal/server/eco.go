package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"stitchroute/internal/core"
	"stitchroute/internal/eco"
	"stitchroute/internal/netlist"
)

// ECORequest is the body of POST /v1/jobs/{id}/eco: an edit script to
// apply against a finished parent job's circuit, rerouted incrementally
// from the parent's committed result. The edits do not participate in
// the parent's cache key — the fork is a new job keyed (in replay mode)
// by the edited circuit itself.
type ECORequest struct {
	// Edits is the ordered edit list (see docs/ECO.md for the schema).
	// An empty list is legal: the fork re-commits the parent's result.
	Edits []eco.Edit `json:"edits"`
	// Margin overrides the patch-mode retry margin in grid cells
	// (default eco.PatchMargin); replay mode ignores it.
	Margin int `json:"margin,omitempty"`
	// Mode selects the ECO engine: "replay" (default; byte-for-byte the
	// cold reroute of the edited circuit) or "patch" (graft onto the
	// parent grid; fastest, deterministic, DRC-rechecked, but not
	// byte-identical to a cold reroute).
	Mode string `json:"mode,omitempty"`
	// Timeout bounds the reroute, as a Go duration string ("30s").
	Timeout string `json:"timeout,omitempty"`
	// NoCache skips the result-cache lookup (replay mode only; patch
	// results never touch the cold-route cache).
	NoCache bool `json:"noCache,omitempty"`
}

// ECOView is the provenance block of an ECO job's JobView.
type ECOView struct {
	// Parent is the job id the fork reroutes from (empty outside the
	// server, e.g. meblroute -eco).
	Parent string `json:"parent,omitempty"`
	// Mode is the ECO engine used ("replay" or "patch").
	Mode string `json:"mode"`
	// EditedNets counts the net IDs the script touches.
	EditedNets int `json:"editedNets"`
	// Fallback reports that the parent carried no usable committed
	// state and the fork was routed cold.
	Fallback bool `json:"fallback,omitempty"`
	// GlobalReused / DetailReused / DetailRouted summarize how much of
	// the parent result was reused (set once the job is done).
	GlobalReused int `json:"globalReused,omitempty"`
	DetailReused int `json:"detailReused,omitempty"`
	DetailRouted int `json:"detailRouted,omitempty"`
	// ECOSeconds is the incremental reroute's wall time.
	ECOSeconds float64 `json:"ecoSeconds,omitempty"`
}

// Record fills in the reuse counts and wall time of a finished
// reroute.
func (v *ECOView) Record(st eco.Stats, d time.Duration) {
	v.Fallback = st.Fallback
	v.GlobalReused = st.GlobalReused
	v.DetailReused = st.DetailReused
	v.DetailRouted = st.DetailRouted
	v.ECOSeconds = d.Seconds()
}

// ECOEngine reroutes an edited circuit from a parent result; it is
// eco.RerouteContext or eco.ReroutePatchContext.
type ECOEngine func(ctx context.Context, parent *core.Result, pc *netlist.Circuit, s *eco.Script, cfg core.Config) (*eco.Result, error)

// ECOEngineFor returns the engine an ECO mode names: "replay"
// (byte-for-byte the cold reroute of the edited circuit) or "patch"
// (graft onto the parent grid).
func ECOEngineFor(mode string) (ECOEngine, error) {
	switch mode {
	case "replay":
		return eco.RerouteContext, nil
	case "patch":
		return eco.ReroutePatchContext, nil
	}
	return nil, fmt.Errorf("unknown eco mode %q (want \"replay\" or \"patch\")", mode)
}

// handleECO forks a terminal job: it applies the edit script to the
// parent's circuit and submits an incremental reroute of the edited
// circuit seeded with the parent's committed result. The fork is a
// first-class job — listed, cancellable, time-bounded, and (in replay
// mode) cached under the edited circuit's own key.
func (s *Server) handleECO(w http.ResponseWriter, r *http.Request) {
	parent, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	state, pres := parent.snapshot()
	if state != StateDone || pres == nil {
		writeErr(w, http.StatusConflict, "parent job is "+string(state)+", not done")
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req ECORequest
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Mode == "" {
		req.Mode = "replay"
	}
	engine, err := ECOEngineFor(req.Mode)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Margin < 0 {
		writeErr(w, http.StatusBadRequest, "margin must be >= 0")
		return
	}
	script := &eco.Script{Edits: req.Edits, Margin: req.Margin}
	// The parent's circuit and config are fixed at submission, so they
	// are safe to read without the job lock.
	edited, err := script.Apply(parent.circuit)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	timeout, apiErr := s.jobTimeout(req.Timeout)
	if apiErr != nil {
		writeErr(w, apiErr.code, apiErr.msg)
		return
	}

	// Replay mode is byte-for-byte the cold reroute of the edited
	// circuit, so it shares the cold route's content-addressed cache
	// slot. Patch results are not byte-identical to a cold reroute and
	// must never populate (or be served from) that cache: no key.
	key := ""
	if req.Mode == "replay" {
		key, err = cacheKey(edited, parent.cfg)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
	}

	j := &Job{
		req: JobRequest{
			Mode:    parent.req.Mode,
			Track:   parent.req.Track,
			Place:   parent.req.Place,
			NoCache: req.NoCache,
		},
		circuit:   edited,
		cfg:       parent.cfg,
		timeout:   timeout,
		key:       key,
		created:   time.Now(),
		eco:       &ECOView{Parent: parent.id, Mode: req.Mode, EditedNets: len(script.DirtyIDs())},
		ecoRun:    engine,
		ecoScript: script,
		ecoBase:   parent.circuit,
		ecoFrom:   pres,
	}

	s.admit(w, r, j)
}

package server

import (
	"context"
	"sync"
	"time"

	"stitchroute/internal/core"
	"stitchroute/internal/eco"
	"stitchroute/internal/fracture"
	"stitchroute/internal/netlist"
	"stitchroute/internal/stencil"
)

// State is a job's lifecycle state. The machine is:
//
//	queued ──► running ──► done
//	   │           │  └───► failed     (routing error or timeout)
//	   │           └──────► cancelled  (DELETE while running, or shutdown)
//	   └──────────────────► cancelled  (DELETE while queued)
//
// Cache hits are born done. done/failed/cancelled are terminal.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobRequest is the body of POST /v1/jobs. Exactly one of Benchmark or
// Circuit must be set.
type JobRequest struct {
	// Benchmark names a bundled benchmark circuit (GET /v1/benchmarks).
	Benchmark string `json:"benchmark,omitempty"`
	// Circuit is an uploaded circuit in the nlio text format.
	Circuit string `json:"circuit,omitempty"`
	// Mode is "stitch" (default) or "baseline".
	Mode string `json:"mode,omitempty"`
	// Track overrides track assignment: "graph", "ilp", or "conventional".
	Track string `json:"track,omitempty"`
	// Place runs stitch-aware placement refinement before routing.
	Place bool `json:"place,omitempty"`
	// Timeout bounds the routing run, as a Go duration string ("30s").
	// Empty means the server's default job timeout.
	Timeout string `json:"timeout,omitempty"`
	// NoCache skips the result-cache lookup (the result is still stored).
	NoCache bool `json:"noCache,omitempty"`
	// Fracture runs write-prep fracturing on the routed geometry: "rect"
	// or "lshape". Fracturing is a pure post-pass over the routes, so it
	// does not participate in the result-cache key.
	Fracture string `json:"fracture,omitempty"`
	// Stencil additionally plans a CP stencil from the fractured shots;
	// requires Fracture.
	Stencil bool `json:"stencil,omitempty"`
}

// StencilSummary is the stencil-planning slice of a job's write-prep
// stage.
type StencilSummary struct {
	Characters int     `json:"characters"`
	Candidates int     `json:"candidates"`
	CPFlashes  int     `json:"cpFlashes"`
	VSBTime    float64 `json:"vsbTime"`
	CPTime     float64 `json:"cpTime"`
	Saving     float64 `json:"saving"`
	Reduction  float64 `json:"reduction"`
}

// WritePrep is the write-prep (fracture + optional stencil) summary of a
// finished job.
type WritePrep struct {
	Mode      string          `json:"mode"`
	Shots     int             `json:"shots"`
	RectShots int             `json:"rectShots"`
	LShots    int             `json:"lShots"`
	Slivers   int             `json:"slivers"`
	Area      int64           `json:"area"`
	Reduction float64         `json:"reduction"`
	ShotsHash string          `json:"shotsHash"`
	Stencil   *StencilSummary `json:"stencil,omitempty"`
}

// buildWritePrep runs the write-prep stage over a routing result.
func buildWritePrep(ctx context.Context, res *core.Result, layers int, mode fracture.Mode, sten bool) (*WritePrep, error) {
	fres, err := fracture.FractureContext(ctx, res.Routes, layers, mode, fracture.Options{})
	if err != nil {
		return nil, err
	}
	hash, err := fracture.ShotsHash(fres.Shots)
	if err != nil {
		return nil, err
	}
	wp := &WritePrep{
		Mode:      fres.Mode.String(),
		Shots:     fres.ShotCount,
		RectShots: fres.RectShots,
		LShots:    fres.LShots,
		Slivers:   fres.Slivers,
		Area:      fres.Area,
		Reduction: fres.LShapeReduction(),
		ShotsHash: hash,
	}
	if sten {
		plan, err := stencil.BuildContext(ctx, fres.Shots, stencil.Options{})
		if err != nil {
			return nil, err
		}
		wp.Stencil = &StencilSummary{
			Characters: len(plan.Placements),
			Candidates: plan.Candidates,
			CPFlashes:  plan.CPFlashes,
			VSBTime:    plan.VSBTime,
			CPTime:     plan.CPTime,
			Saving:     plan.Saving,
			Reduction:  plan.Reduction(),
		}
	}
	return wp, nil
}

// Summary is the Table III-style result summary of a finished job.
type Summary struct {
	Routability         float64            `json:"routability"`
	RoutedNets          int                `json:"routedNets"`
	ViaViolations       int                `json:"viaViolations"`
	ViaViolationsOffPin int                `json:"viaViolationsOffPin"`
	VertRouteViolations int                `json:"vertRouteViolations"`
	ShortPolygons       int                `json:"shortPolygons"`
	Wirelength          int64              `json:"wirelength"`
	Vias                int                `json:"vias"`
	TVOF                int                `json:"tvof"`
	MVOF                int                `json:"mvof"`
	BadEnds             int                `json:"badEnds"`
	RippedNets          int                `json:"rippedNets"`
	FailedNets          int                `json:"failedNets"`
	CPUSeconds          float64            `json:"cpuSeconds"`
	StageSeconds        map[string]float64 `json:"stageSeconds"`
}

func summarize(res *core.Result) *Summary {
	rep := res.Report
	return &Summary{
		Routability:         rep.Routability(),
		RoutedNets:          rep.RoutedNets,
		ViaViolations:       rep.ViaViolations,
		ViaViolationsOffPin: rep.ViaViolationsOffPin,
		VertRouteViolations: rep.VertRouteViolations,
		ShortPolygons:       rep.ShortPolygons,
		Wirelength:          rep.Wirelength,
		Vias:                rep.Vias,
		TVOF:                res.TVOF,
		MVOF:                res.MVOF,
		BadEnds:             res.TrackStats.BadEnds,
		RippedNets:          res.RippedNets,
		FailedNets:          res.FailedNets,
		CPUSeconds:          res.Times.Total().Seconds(),
		StageSeconds: map[string]float64{
			"global": res.Times.Global.Seconds(),
			"layer":  res.Times.Layer.Seconds(),
			"track":  res.Times.Track.Seconds(),
			"detail": res.Times.Detail.Seconds(),
		},
	}
}

// Job is one routing job. All mutable fields are guarded by mu; the
// circuit and config are fixed at submission, and result is written once
// (on completion) before the state turns terminal.
type Job struct {
	mu sync.Mutex

	id       string
	req      JobRequest // normalized (defaults applied)
	circuit  *netlist.Circuit
	cfg      core.Config
	fracMode fracture.Mode // valid when req.Fracture != ""
	timeout  time.Duration
	key      string // content-addressed cache key

	state           State
	errMsg          string
	created         time.Time
	started         time.Time
	finished        time.Time
	cancel          context.CancelFunc
	cancelRequested bool
	cacheHit        bool
	result          *core.Result
	writePrep       *WritePrep

	// ECO fork fields (set when the job was submitted via
	// POST /v1/jobs/{id}/eco): the parent job's id, the engine mode,
	// the edit script, and the parent circuit/result the script applies
	// to. ecoStats is written once on completion, under mu.
	ecoParent string
	ecoMode   string
	ecoEdited int
	ecoScript *eco.Script
	ecoBase   *netlist.Circuit
	ecoFrom   *core.Result
	ecoStats  *eco.Stats
	ecoTime   time.Duration
}

// JobView is the JSON representation of a job returned by the API.
type JobView struct {
	ID        string     `json:"id"`
	State     State      `json:"state"`
	Circuit   string     `json:"circuit"`
	Nets      int        `json:"nets"`
	Pins      int        `json:"pins"`
	Mode      string     `json:"mode"`
	Track     string     `json:"track,omitempty"`
	Place     bool       `json:"place,omitempty"`
	Timeout   string     `json:"timeout,omitempty"`
	CacheHit  bool       `json:"cacheHit"`
	Error     string     `json:"error,omitempty"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Summary   *Summary   `json:"summary,omitempty"`
	WritePrep *WritePrep `json:"writePrep,omitempty"`
	ECO       *ECOView   `json:"eco,omitempty"`
}

// view snapshots the job for serialization.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.id,
		State:    j.state,
		Circuit:  j.circuit.Name,
		Nets:     len(j.circuit.Nets),
		Pins:     j.circuit.NumPins(),
		Mode:     j.req.Mode,
		Track:    j.req.Track,
		Place:    j.req.Place,
		CacheHit: j.cacheHit,
		Error:    j.errMsg,
		Created:  j.created,
	}
	if j.timeout > 0 {
		v.Timeout = j.timeout.String()
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.state == StateDone && j.result != nil {
		v.Summary = summarize(j.result)
		v.WritePrep = j.writePrep
	}
	if j.ecoMode != "" {
		ev := &ECOView{Parent: j.ecoParent, Mode: j.ecoMode, EditedNets: j.ecoEdited}
		if j.ecoStats != nil {
			ev.Fallback = j.ecoStats.Fallback
			ev.GlobalReused = j.ecoStats.GlobalReused
			ev.DetailReused = j.ecoStats.DetailReused
			ev.DetailRouted = j.ecoStats.DetailRouted
			ev.ECOSeconds = j.ecoTime.Seconds()
		}
		v.ECO = ev
	}
	return v
}

// snapshot returns the state and (if done) the result.
func (j *Job) snapshot() (State, *core.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result
}

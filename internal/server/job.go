package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"stitchroute/internal/core"
	"stitchroute/internal/eco"
	"stitchroute/internal/fracture"
	"stitchroute/internal/netlist"
	"stitchroute/internal/stencil"
	"stitchroute/internal/track"
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

// Config resolves the request's router configuration (Mode, then the
// Track override) and its write-prep fracture mode, which is meaningful
// only when Fracture is set. An empty Mode means "stitch".
func (req *JobRequest) Config() (core.Config, fracture.Mode, error) {
	var cfg core.Config
	switch req.Mode {
	case "", "stitch":
		cfg = core.StitchAware()
	case "baseline":
		cfg = core.Baseline()
	default:
		return cfg, 0, fmt.Errorf("unknown mode %q (want \"stitch\" or \"baseline\")", req.Mode)
	}
	switch req.Track {
	case "":
	case "conventional":
		cfg.TrackAlgo = track.Conventional
	case "ilp":
		cfg.TrackAlgo = track.ILPBased
	case "graph":
		cfg.TrackAlgo = track.GraphBased
	default:
		return cfg, 0, fmt.Errorf("unknown track algorithm %q (want \"conventional\", \"ilp\", or \"graph\")", req.Track)
	}
	var fmode fracture.Mode
	if req.Fracture != "" {
		var err error
		if fmode, err = fracture.ParseMode(req.Fracture); err != nil {
			return cfg, 0, err
		}
	} else if req.Stencil {
		return cfg, 0, errors.New("\"stencil\" requires \"fracture\"")
	}
	return cfg, fmode, nil
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

// BuildWritePrep runs the write-prep stage over a routing result: the
// fracture in the given mode, its shots hash, and, when sten is set, the
// stencil plan.
func BuildWritePrep(ctx context.Context, res *core.Result, layers int, mode fracture.Mode, sten bool) (*WritePrep, error) {
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
	DetailConnects      int                `json:"detailConnects"`
	DetailExpansions    int64              `json:"detailExpansions"`
	CPUSeconds          float64            `json:"cpuSeconds"`
	StageSeconds        map[string]float64 `json:"stageSeconds"`
}

// Summarize builds a routing result's summary.
func Summarize(res *core.Result) *Summary {
	rep := res.Report
	s := &Summary{
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
		DetailConnects:      res.DetailConnects,
		DetailExpansions:    res.DetailExpansions,
		CPUSeconds:          res.Times.Total().Seconds(),
		StageSeconds:        map[string]float64{},
	}
	for _, st := range res.Times.Stages() {
		s.StageSeconds[st.Name] = st.Time.Seconds()
	}
	return s
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
	// POST /v1/jobs/{id}/eco): the provenance view, the engine, the edit
	// script, and the parent circuit/result the script applies to. The
	// view's reuse counts are recorded once on completion, under mu.
	// The run inputs are dropped when the fork turns terminal (dropFork).
	eco       *ECOView
	ecoRun    ECOEngine
	ecoScript *eco.Script
	ecoBase   *netlist.Circuit
	ecoFrom   *core.Result
}

// dropFork releases an ECO fork's run inputs once it is terminal: they
// hold the parent's circuit and whole result, which would otherwise
// outlive the parent's own eviction for as long as the fork is
// retained. The caller holds j.mu, or owns j before it is registered.
func (j *Job) dropFork() {
	j.ecoRun, j.ecoScript, j.ecoBase, j.ecoFrom = nil, nil, nil, nil
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
		v.Summary = Summarize(j.result)
		v.WritePrep = j.writePrep
	}
	if j.eco != nil {
		ev := *j.eco
		v.ECO = &ev
	}
	return v
}

// snapshot returns the state and (if done) the result.
func (j *Job) snapshot() (State, *core.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result
}

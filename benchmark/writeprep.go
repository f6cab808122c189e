package main

import (
	"context"
	"errors"

	"stitchroute"
	"stitchroute/internal/fracture"
	"stitchroute/internal/plan"
	"stitchroute/internal/stencil"
)

// writePrep is a job's write-prep stage on fixed routed geometry:
// L-shape fracturing, the shot-list hash and CP stencil planning.
type writePrep struct {
	routes []plan.NetRoute
	layers int
}

type prepOut struct {
	fr   *fracture.Result
	pl   *stencil.Plan
	hash string
}

// setupWritePrep routes the canonical geometry and checks it.
func setupWritePrep(ctx context.Context, sz sizes, _ int64) (instance, error) {
	c := stitchroute.Generate(spec(sz.prepCircuit))
	res, err := route(ctx, c, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	if _, _, err := verify(c, res.Routes, res.FailedNets); err != nil {
		return nil, err
	}
	return &writePrep{routes: res.Routes, layers: c.Fabric.Layers}, nil
}

func (w *writePrep) close() {}

func (w *writePrep) passLen() int { return 1 }

func (w *writePrep) pass(ctx context.Context, i int, rec *recorder) (passOut, error) {
	return sequentialPass(ctx, w, i, rec), nil
}

func (w *writePrep) run(ctx context.Context, _ int, rec *recorder, op, root int) (any, error) {
	var out prepOut
	var err error
	rec.time(op, root, "fracture.run", func() {
		out.fr, err = fracture.FractureContext(ctx, w.routes, w.layers, fracture.ModeLShape, fracture.Options{})
	})
	if err != nil {
		return nil, err
	}
	rec.time(op, root, "fracture.hash", func() { out.hash, err = fracture.ShotsHash(out.fr.Shots) })
	if err != nil {
		return nil, err
	}
	rec.time(op, root, "stencil.build", func() { out.pl, err = stencil.BuildContext(ctx, out.fr.Shots, stencil.Options{}) })
	return out, err
}

// check holds every op to the first op's shot list (determinism) and
// requires a non-empty plan.
func (w *writePrep) check(_ int, o any) opResult {
	out := o.(prepOut)
	r := opResult{key: "geometry", hash: out.hash, counts: prepCounts(out.fr, out.pl)}
	if out.fr.ShotCount == 0 || out.pl.CPTime <= 0 {
		r.err = errors.New("write-prep produced no shots or no write time")
	}
	return r
}

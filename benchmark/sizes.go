package main

// sizes are the input sizes of every workload. fullSizes is the
// benchmark; smokeSizes runs the same code on Primary1-sized inputs in
// the tests.
type sizes struct {
	// chips are routed cold, one op each per pass.
	chips []string
	// ecoParent is routed in set-up; each pass patches it once per edit,
	// with the edit kinds in these counts.
	ecoParent                              string
	ecoMovePin, ecoMove, ecoAdd, ecoDelete int
	// prepCircuit is routed in set-up; each pass fractures it once.
	prepCircuit string
	// hot are submitted in set-up and resubmitted (cache hits) hotEach
	// times per pass; uploads are fresh-offset circuits per pass, of which
	// fractured also ask for fracture and stencil.
	hot       []string
	hotEach   int
	uploads   []upload
	fractured int
}

// upload is one uploaded circuit class of the service mix.
type upload struct {
	circuit string
	count   int
}

var fullSizes = sizes{
	chips:     []string{"S38417", "S38584"},
	ecoParent: "S13207",
	// 120 edits: the slowest tenth of a pass is 12 edits, enough that
	// the tail does not hang on which few nets a seed picks.
	ecoMovePin:  84,
	ecoMove:     12,
	ecoAdd:      12,
	ecoDelete:   12,
	prepCircuit: "S15850",
	// 40 jobs a pass: 20% hot resubmits, then 15% Primary1, 40% S9234
	// and 25% S13207 uploads, a quarter of the uploads fractured. A pass
	// takes about twice run_seconds, so every run is exactly one pass:
	// a pass length near run_seconds would make some runs two passes,
	// with twice the jobs retained in the server's memory.
	hot:       []string{"Primary1", "S9234"},
	hotEach:   4,
	uploads:   []upload{{"Primary1", 6}, {"S9234", 16}, {"S13207", 10}},
	fractured: 8,
}

var smokeSizes = sizes{
	chips:       []string{"Primary1"},
	ecoParent:   "Primary1",
	ecoMovePin:  1,
	ecoMove:     1,
	ecoAdd:      1,
	ecoDelete:   1,
	prepCircuit: "Primary1",
	hot:         []string{"Primary1"},
	hotEach:     1,
	uploads:     []upload{{"Primary1", 2}},
	fractured:   1,
}

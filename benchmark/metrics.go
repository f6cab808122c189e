package main

// metricDef is one reported metric and its unit. The lists below must
// match BENCHMARK.json; the smoke test holds them to it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the router sees, reported from
// untraced ops.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's layer metrics. Timings (s, ms) are the
// median over traced ops of the time one op spent in the layer; counts
// are summed over the first traced pass. A layer the workload's ops never
// enter reads 0.
var perLayer = []metricDef{
	{"bench.generate_s", "s"},
	{"global.route_s", "s"},
	{"global.refine_s", "s"},
	{"global.wirelength", "tracks"},
	{"global.overflow", "count"},
	{"layer.assign_s", "s"},
	{"track.assign_s", "s"},
	{"track.ripped", "count"},
	{"track.bad_ends", "count"},
	{"detail.run_s", "s"},
	{"detail.searches", "count"},
	{"detail.expansions", "count"},
	{"detail.expansions_per_s", "1/s"},
	{"detail.ripped_nets", "count"},
	{"detail.speculated", "count"},
	{"detail.committed", "count"},
	{"detail.conflicts", "count"},
	{"detail.replays", "count"},
	{"detail.commit_ratio", "ratio"},
	{"detail.worker_busy_s", "s"},
	{"detail.worker_util", "ratio"},
	{"drc.check_s", "s"},
	{"drc.invariants_s", "s"},
	{"drc.failed_nets", "count"},
	{"drc.short_polygons", "count"},
	{"drc.via_violations", "count"},
	{"drc.wirelength", "tracks"},
	{"core.self_s", "s"},
	{"fracture.run_s", "s"},
	{"fracture.shots", "count"},
	{"fracture.shots_per_s", "1/s"},
	{"fracture.hash_s", "s"},
	{"stencil.build_s", "s"},
	{"stencil.candidates", "count"},
	{"stencil.characters", "count"},
	{"stencil.write_time", "units"},
	{"eco.patch_s", "s"},
	{"eco.detail_routed", "count"},
	{"eco.reroute_frac", "ratio"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.hit_ms", "ms"},
	{"server.cache_hit_frac", "ratio"},
	{"server.stage_global_s", "s"},
	{"server.stage_detail_s", "s"},
	{"server.detail_conflicts", "count"},
	{"server.polls_per_job", "count"},
	{"nlio.write_ms", "ms"},
	{"nlio.read_ms", "ms"},
	{"nlio.circuit_hash_ms", "ms"},
	{"nlio.routes_hash_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// quality are the op outputs' quality counts, printed on every run (as
// human-readable lines) and emitted as per-layer counts when traced.
var quality = []string{
	"drc.failed_nets", "drc.short_polygons", "drc.via_violations",
	"drc.wirelength", "fracture.shots", "stencil.write_time",
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// derived are the per-layer metrics computed from the first traced
// pass's counts and summed timings rather than read from one op.
var derived = map[string]func(c, sum map[string]float64) float64{
	"detail.expansions_per_s": func(c, sum map[string]float64) float64 {
		return ratio(c["detail.expansions"], sum["detail.run_s"])
	},
	"detail.commit_ratio": func(c, _ map[string]float64) float64 {
		return ratio(c["detail.committed"], c["detail.speculated"])
	},
	"detail.worker_util": func(_, sum map[string]float64) float64 {
		return ratio(sum["detail.worker_busy_s"], sum["detail.capacity_s"])
	},
	"eco.reroute_frac": func(c, _ map[string]float64) float64 {
		return ratio(c["eco.detail_routed"], c["eco.detail_routed"]+c["eco.detail_reused"])
	},
	"fracture.shots_per_s": func(c, sum map[string]float64) float64 {
		return ratio(c["fracture.shots"], sum["fracture.run_s"])
	},
	"server.cache_hit_frac": func(c, _ map[string]float64) float64 {
		return ratio(c["server.cache_hits"], c["server.cache_hits"]+c["server.cache_misses"])
	},
	"server.polls_per_job": func(c, _ map[string]float64) float64 {
		return ratio(c["server.polls"], c["server.jobs"])
	},
}

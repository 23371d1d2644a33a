package main

// metricDef names one reported metric and its unit. The lists below are the
// source of truth for the report; the tests check that BENCHMARK.json at the
// repository root declares exactly the same names and units.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of a --trace 0 run. Every workload reports all of
// them; what an "operation" is depends on the workload (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},      // median of setupRuns set-ups: time until the first operation can run
	{"ops_per_s", "1/s"},  // searches/s or MC samples/s
	{"p50_ms", "ms"},      // median operation latency
	{"tail_ms", "ms"},     // the workload's fixed tail percentile of operation latency
	{"peak_rss_mb", "MB"}, // peak resident set size of the process
}

// perLayer are the metrics of a --trace 1 run, named after the module they
// measure. README.md gives the end-to-end metric each should move. Values
// that can be 0 by construction on a workload are logged instead
// (logExtras).
var perLayer = []metricDef{
	{"device.ids_ns", "ns"},
	{"cell.hold_snm_us", "us"},
	{"cell.read_snm_us", "us"},
	{"cell.write_margin_ms", "ms"},
	{"circuit.self_ms", "ms"},
	{"core.framework_s", "s"},
	{"array.prepare_ns", "ns"},
	{"array.prepare_hybrid_ns", "ns"},
	{"array.clone_ns", "ns"},
	{"array.bound_rect_ns", "ns"},
	{"array.eval_sweep_ns_per_point", "ns"},
	{"core.space_points_per_search", "count"},
	{"core.evaluated_per_search", "count"},
	{"core.bound_efficiency", "frac"},
	{"core.ns_per_space_point", "ns"},
	{"core.allocs_per_search", "count"},
	{"core.alloc_mb_per_search", "MB"},
	{"core.front_size", "count"},
	{"core.chunk_span_share", "frac"},
	{"mc.samples_to_ci", "count"},
	{"mc.ess_frac", "frac"},
	{"catalog.build_s", "s"},
	{"catalog.lookup_ns", "ns"},
	{"catalog.hit_frac", "frac"},
	{"serve.hit_frac", "frac"},
	{"serve.miss_frac", "frac"},
	{"serve.handler_us.catalog", "us"},
	{"serve.handler_us.hit", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.fill_ms", "ms"},
	{"serve.inflight_max", "count"},
	{"load.lag_p99_ms", "ms"},
	{"load.backlog_max", "count"},
	{"trace.overhead_ratio", "ratio"},
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

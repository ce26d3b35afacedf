package main

// policyNames, searchNames and serveKinds name the per-layer breakdowns.
var (
	policyNames = []string{"pack", "pack_off", "spread", "optimal_region"}
	searchNames = []string{"static", "diurnal", "regions"}
	serveKinds  = []string{"warm", "revalidate", "scrape", "keyed", "reload"}
)

// perLayer are the metrics of a traced run. Every workload reports all
// of them; a layer a workload never calls reads 0 there. README.md maps
// each to the end-to-end metric it should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// fleet-batch, report half
		{"synth.gen_s", "s"},
		{"synth.allocs_per_server", "count"},
		{"synth.alloc_mb", "MB"},
		{"dataset.encode_s", "s"},
		{"dataset.encode_mb_per_s", "MB/s"},
		{"dataset.file_mb", "MB"},
		{"dataset.decode_s", "s"},
		{"dataset.decode_mb_per_s", "MB/s"},
		{"dataset.derive_s", "s"},
		{"dataset.allocs", "count"},
		{"report.render_s", "s"},
		{"report.alloc_mb", "MB"},
		{"report.allocs", "count"},
		{"pipeline.gen_s", "s"},
		{"pipeline.analyze_s", "s"},
		// fleet-batch, plan half
		{"synth.fleet_rows_s", "s"},
		{"placement.profiles_s", "s"},
		{"trace.build_s", "s"},
	}
	for _, p := range policyNames {
		defs = append(defs, metricDef{"fleetsim.run_s." + p, "s"}, metricDef{"fleetsim.ns_per_step." + p, "ns"})
	}
	defs = append(defs, metricDef{"fleetsim.transitions", "count"})
	for _, s := range searchNames {
		defs = append(defs,
			metricDef{"optimize.search_s." + s, "s"},
			metricDef{"optimize.evaluated." + s, "count"},
			metricDef{"optimize.pruned." + s, "count"},
			metricDef{"optimize.infeasible." + s, "count"},
			metricDef{"optimize.prune_ratio." + s, "ratio"},
			metricDef{"optimize.allocs_per_scored." + s, "count"},
		)
		if s != "static" {
			defs = append(defs, metricDef{"optimize.cells." + s, "count"})
		}
	}
	defs = append(defs,
		metricDef{"optimize.feasible_share", "ratio"},
		metricDef{"pipeline.sim_s", "s"},
		metricDef{"pipeline.search_static_s", "s"},
		metricDef{"pipeline.search_varying_s", "s"},
	)
	// serve-mixed
	for _, k := range serveKinds {
		defs = append(defs, metricDef{"serve.lat_ms." + k + ".p50", "ms"}, metricDef{"serve.lat_ms." + k + ".p99", "ms"})
	}
	return append(defs,
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.coalesced", "count"},
		metricDef{"metrics.scrape_kb", "KB"},
		metricDef{"serve.workspace_hit_ratio", "ratio"},
		metricDef{"serve.workspace_loads", "count"},
		metricDef{"serve.workspace_evictions", "count"},
		metricDef{"serve.alloc_kb_per_req", "KB"},
		metricDef{"serve.cold_share", "ratio"},
		metricDef{"serve.max_rps", "1/s"},
		metricDef{"loadgen.late_ms.p99", "ms"},
		// every workload
		metricDef{"tracing.overhead_pct", "%"},
		metricDef{"fail_ratio", "ratio"},
	)
}()

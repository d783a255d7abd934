package main

// endToEnd are the end-to-end metrics and their units. Every workload
// reports all of them in its untraced run, each measured on that
// workload (README.md says how).
var endToEnd = map[string]string{
	"wall_s":      "s",
	"setup_s":     "s",
	"peak_rss_mb": "MB",
}

// perLayer are the per-layer metrics and their units. The traced run of
// every workload reports all of them: the workload's own, and for the
// layers it does not exercise, those of the other workloads run at smoke
// scale after it.
var perLayer = map[string]string{
	// Client-side figures of one workload each.
	"sim_mrefs_per_s": "Mrefs/s",
	"exact_s":         "s",
	"sampled_s":       "s",
	"req_per_s":       "1/s",
	"hit_p50_ms":      "ms",
	"hit_p99_ms":      "ms",
	"cold_p50_ms":     "ms",
	"cold_p90_ms":     "ms",
	"disk_p50_ms":     "ms",
	"proxied_p50_ms":  "ms",
	"proxied_p99_ms":  "ms",

	// workload (+trace): reference generation.
	"workload.ns_per_ref": "ns",
	"workload.refs":       "count",

	// engine: the fast engine and the cost of each attachment.
	"engine.ns_per_ref":         "ns",
	"engine.tracker_ns_per_ref": "ns",
	"engine.victim_ns_per_ref":  "ns",
	"engine.tkpf_ns_per_ref":    "ns",
	"engine.dbcp_ns_per_ref":    "ns",
	"l1.accesses":               "count",
	"l1.miss_ratio":             "ratio",
	"l2.miss_ratio":             "ratio",
	"tracker.generations":       "count",
	"victim.admit_ratio":        "ratio",
	"prefetch.useful_ratio":     "ratio",

	// cpu/hier: the reference loop and functional warming.
	"refloop.ns_per_ref":    "ns",
	"functional.ns_per_ref": "ns",

	// sample: sampled-run shape and accuracy.
	"sample.windows":        "count",
	"sample.detailed_share": "ratio",
	"ipc_rel_err":           "ratio",
	"ci_coverage":           "ratio",

	// experiments: the sweep's scheduler.
	"experiments.sims":        "count",
	"experiments.dedup_ratio": "ratio",
	"experiments.cpu_util":    "ratio",

	// simcache and store.
	"simcache.hit_us":       "us",
	"store.open_s":          "s",
	"store.get_p50_ms":      "ms",
	"store.get_p99_ms":      "ms",
	"store.put_p50_ms":      "ms",
	"store.entries":         "count",
	"store.bytes_per_entry": "bytes",

	// serve: per-stage latency from /v1/load and the hit path.
	"serve.ingress.p50_ms":      "ms",
	"serve.ingress.p99_ms":      "ms",
	"serve.validate.p50_ms":     "ms",
	"serve.validate.p99_ms":     "ms",
	"serve.queue_wait.p50_ms":   "ms",
	"serve.queue_wait.p99_ms":   "ms",
	"serve.resolve.p50_ms":      "ms",
	"serve.resolve.p99_ms":      "ms",
	"serve.probe_disk.p50_ms":   "ms",
	"serve.probe_disk.p99_ms":   "ms",
	"serve.simulate.p50_ms":     "ms",
	"serve.simulate.p99_ms":     "ms",
	"serve.persist.p50_ms":      "ms",
	"serve.persist.p99_ms":      "ms",
	"serve.proxy.p50_ms":        "ms",
	"serve.proxy.p99_ms":        "ms",
	"serve.respond.p50_ms":      "ms",
	"serve.respond.p99_ms":      "ms",
	"serve.hit_resp_bytes":      "bytes",
	"serve.http_overhead_ms":    "ms",
	"serve.mem_hit_ratio":       "ratio",
	"serve.disk_hit_ratio":      "ratio",
	"serve.proxied_ratio":       "ratio",
	"cluster.proxied":           "count",
	"cluster.fallback":          "count",
	"telemetry.spans_per_trace": "count",
	"telemetry.trace_bytes":     "bytes",
	"telemetry.id_ns":           "ns",
	"telemetry.span_ns":         "ns",
}

// serveStages are the stage names /v1/load reports.
var serveStages = []string{
	"ingress", "validate", "queue_wait", "resolve", "probe_disk",
	"simulate", "persist", "proxy", "respond",
}

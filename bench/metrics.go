package main

// metricDef is one row of the benchmark's contract. BENCHMARK.json at the
// repository root mirrors these tables; the test fails when they drift.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see; every workload
// reports all of them from an untraced run. Bound is the share of the
// parent's median by which the metric may get worse; each is at least three
// times the widest spread across ten seeds seen while sizing the runs (see
// README.md), and set-up time carries the largest.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.12},
	{"ns_per_node_tick", "ns", "lower", 0.12},
	{"op_latency_p50_ms", "ms", "lower", 0.16},
	{"op_latency_p90_ms", "ms", "lower", 0.15},
	{"live_heap_mb", "MB", "lower", 0.12},
}

// perLayer are the single-layer metrics a traced run reports. They carry no
// bound: they say where a change landed, not whether it is acceptable.
var perLayer = []metricDef{
	{Name: "trace.ops_per_s", Unit: "1/s", Better: "higher"},

	{Name: "centurion.new_ms_16x8", Unit: "ms", Better: "lower"},
	{Name: "centurion.new_ms_64x64", Unit: "ms", Better: "lower"},
	{Name: "centurion.step_ns_16x8_none", Unit: "ns", Better: "lower"},
	{Name: "centurion.step_ns_16x8_ni", Unit: "ns", Better: "lower"},
	{Name: "centurion.step_ns_16x8_ffw", Unit: "ns", Better: "lower"},
	{Name: "centurion.step_ns_64x64_ffw", Unit: "ns", Better: "lower"},
	{Name: "centurion.reset_us_16x8", Unit: "us", Better: "lower"},
	{Name: "centurion.inject_faults_us_16x8_32", Unit: "us", Better: "lower"},
	{Name: "centurion.snapshot_us_16x8", Unit: "us", Better: "lower"},
	{Name: "centurion.restore_us_16x8", Unit: "us", Better: "lower"},
	{Name: "centurion.snapshot_ms_64x64", Unit: "ms", Better: "lower"},
	{Name: "centurion.restore_ms_64x64", Unit: "ms", Better: "lower"},
	{Name: "centurion.ckpt_encode_us_16x8", Unit: "us", Better: "lower"},
	{Name: "centurion.ckpt_decode_us_16x8", Unit: "us", Better: "lower"},
	{Name: "centurion.ckpt_bytes_16x8", Unit: "B", Better: "lower"},

	{Name: "noc.tick_ns_per_router_16x8", Unit: "ns", Better: "lower"},
	{Name: "noc.tick_ns_per_router_64x64", Unit: "ns", Better: "lower"},

	{Name: "node.nearest_ns_16x8", Unit: "ns", Better: "lower"},
	{Name: "node.nearestk_ns_16x8", Unit: "ns", Better: "lower"},
	{Name: "node.nearestk_after_set_ns_16x8", Unit: "ns", Better: "lower"},
	{Name: "node.nearest_ns_64x64", Unit: "ns", Better: "lower"},
	{Name: "node.nearestk_ns_64x64", Unit: "ns", Better: "lower"},
	{Name: "node.nearestk_after_set_ns_64x64", Unit: "ns", Better: "lower"},

	{Name: "aim.step_delta_ns_ni", Unit: "ns", Better: "lower"},
	{Name: "aim.step_delta_ns_ffw", Unit: "ns", Better: "lower"},

	{Name: "metrics.settling_us", Unit: "us", Better: "lower"},

	{Name: "experiments.run_ms_none", Unit: "ms", Better: "lower"},
	{Name: "experiments.run_ms_ni", Unit: "ms", Better: "lower"},
	{Name: "experiments.run_ms_ffw", Unit: "ms", Better: "lower"},
	{Name: "experiments.run_ms_ffw_faulted", Unit: "ms", Better: "lower"},
	{Name: "experiments.pool_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "experiments.warm_fork_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.warm_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "server.parse_spec_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.handler_get_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.handler_store_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.handler_miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.handler_sweep_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.http_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.hit_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.miss_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.response_bytes_hit", Unit: "B", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.store_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "store.put_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.put_us_p99", Unit: "us", Better: "lower"},
	{Name: "store.get_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.puts", Unit: "count", Better: "lower"},
	{Name: "store.put_bytes", Unit: "B", Better: "lower"},
	{Name: "store.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "store.fsync_probe_us", Unit: "us", Better: "lower"},

	{Name: "dispatch.execute_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dispatch.worker_busy_share", Unit: "ratio", Better: "higher"},
	{Name: "dispatch.complete_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "dispatch.checkpoint_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "dispatch.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "dispatch.checkpoints_per_cell", Unit: "count", Better: "lower"},
	{Name: "dispatch.requeues", Unit: "count", Better: "lower"},
	{Name: "dispatch.journal_cycle_us_p50", Unit: "us", Better: "lower"},
}

// workloadDef names a workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"paper16x8_cold", "the paper's 16x8 experiment with warm-start off: cold step, Reset pooling, fault rerouting and settling analysis do all the work; directory, store and dispatch do none"},
	{"fabric64_ffw", "one 64x64 FFW fabric with default tiling: the task directory and tiled kernel dominate here and are negligible at 16x8; the only workload whose heap reflects fabric layout"},
	{"serve_mix", "closed loop of 2 clients over a fixed mix of cache hits, job GETs, store hits, misses and sweeps: decode, cache, store read/write+fsync and encode, with simulation a minority of wall time"},
	{"dispatch_sweep", "sweeps of fresh seeds through 2 leased in-process workers with journal and store: lease, run, checkpoint ship, complete and fsyncs, with worker-side warm-start forking"},
}

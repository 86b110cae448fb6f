package main

// metricSpec is one metric of the benchmark. The end-to-end set and the
// per-layer set are listed in BENCHMARK.json at the repository root with
// the same names, units and directions (TestManifestMatchesCatalog).
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	Layer  string  // per-layer only: the module measured
	Moves  string  // the end-to-end metric and workload this one should move
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports every one of them (METRICS.md says what each means on each
// workload).
var endToEnd = []metricSpec{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "job_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	// The simulated D-BP speedup as a ratio (100 = PUBS no faster than
	// base), so the metric stays positive where the speedup is negative
	// and a bound relative to its median keeps its meaning.
	{Name: "dbp_gm_ipc_ratio_pct", Unit: "%", Better: "higher", Bound: 0.01},
}

// perLayer are the traced run's metrics, one module each.
var perLayer = []metricSpec{
	{Name: "pipeline.self_s", Unit: "s", Better: "lower", Layer: "pipeline", Moves: "wall_s on paper-figures (most), little on sampled-sweep"},
	{Name: "pipeline.ns_per_cycle", Unit: "ns", Better: "lower", Layer: "pipeline", Moves: "wall_s on paper-figures (most), little on sampled-sweep"},
	{Name: "pipeline.minst_per_s", Unit: "Minst/s", Better: "higher", Layer: "pipeline", Moves: "wall_s on paper-figures (most), little on sampled-sweep"},
	{Name: "pipeline.cycles", Unit: "count", Better: "lower", Layer: "pipeline", Moves: "wall_s on the paper-figures memory-bound cells"},
	{Name: "pipeline.skipped_cycle_frac", Unit: "ratio", Better: "higher", Layer: "pipeline", Moves: "wall_s on the paper-figures memory-bound cells"},
	{Name: "pipeline.fetch_share", Unit: "share", Better: "lower", Layer: "pipeline", Moves: "wall_s on paper-figures, ~0 on sampled-sweep"},
	{Name: "pipeline.dispatch_share", Unit: "share", Better: "lower", Layer: "pipeline", Moves: "wall_s on paper-figures, ~0 on sampled-sweep"},
	{Name: "pipeline.issue_share", Unit: "share", Better: "lower", Layer: "pipeline", Moves: "wall_s on paper-figures, ~0 on sampled-sweep"},
	{Name: "pipeline.commit_share", Unit: "share", Better: "lower", Layer: "pipeline", Moves: "wall_s on paper-figures, ~0 on sampled-sweep"},
	{Name: "pipeline.skip_share", Unit: "share", Better: "lower", Layer: "pipeline", Moves: "wall_s on paper-figures, ~0 on sampled-sweep"},
	{Name: "pipeline.misspec_penalty_reduction_pct", Unit: "%", Better: "higher", Layer: "pipeline", Moves: "dbp_gm_ipc_ratio_pct on every workload"},
	{Name: "bpred.mispredict_pki", Unit: "1/kinst", Better: "lower", Layer: "pipeline", Moves: "dbp_gm_ipc_ratio_pct on every workload"},
	{Name: "cache.llc_mpki", Unit: "1/kinst", Better: "lower", Layer: "pipeline", Moves: "dbp_gm_ipc_ratio_pct on every workload"},
	{Name: "core.unconf_slice_frac", Unit: "ratio", Better: "higher", Layer: "pipeline", Moves: "dbp_gm_ipc_ratio_pct on every workload"},
	{Name: "iq.priority_stall_pki", Unit: "1/kinst", Better: "lower", Layer: "pipeline", Moves: "dbp_gm_ipc_ratio_pct on every workload"},

	{Name: "emu.self_s", Unit: "s", Better: "lower", Layer: "emu", Moves: "wall_s on sampled-sweep"},
	{Name: "emu.ff_minst_per_s", Unit: "Minst/s", Better: "higher", Layer: "emu", Moves: "wall_s on sampled-sweep"},
	{Name: "emu.stream_share", Unit: "share", Better: "lower", Layer: "emu", Moves: "little on paper-figures"},

	{Name: "sampling.self_s", Unit: "s", Better: "lower", Layer: "sampling", Moves: "wall_s on sampled-sweep"},
	{Name: "sampling.plan_s", Unit: "s", Better: "lower", Layer: "sampling", Moves: "wall_s on sampled-sweep"},
	{Name: "sampling.plan_passes", Unit: "count", Better: "lower", Layer: "sampling", Moves: "wall_s on sampled-sweep"},
	{Name: "sampling.plan_mb", Unit: "MB", Better: "lower", Layer: "sampling", Moves: "wall_s on sampled-sweep"},
	{Name: "sampling.replay_s", Unit: "s", Better: "lower", Layer: "sampling", Moves: "wall_s on sampled-sweep"},
	{Name: "sampling.windows", Unit: "count", Better: "lower", Layer: "sampling", Moves: "wall_s on sampled-sweep"},
	{Name: "sampling.codec_share", Unit: "share", Better: "lower", Layer: "sampling", Moves: "wall_s on sampled-sweep, job_p90_ms on cluster-mix"},

	{Name: "experiments.self_s", Unit: "s", Better: "lower", Layer: "experiments", Moves: "wall_s on paper-figures"},
	{Name: "experiments.sims", Unit: "count", Better: "lower", Layer: "experiments", Moves: "wall_s on paper-figures"},
	{Name: "experiments.memo_hit_ratio", Unit: "ratio", Better: "higher", Layer: "experiments", Moves: "wall_s on paper-figures"},

	{Name: "service.self_s", Unit: "s", Better: "lower", Layer: "service", Moves: "job_p50_ms/job_p90_ms on cluster-mix, wall_s on sampled-sweep"},
	{Name: "service.queue_wait_ms_p50", Unit: "ms", Better: "lower", Layer: "service", Moves: "job_p50_ms/job_p90_ms on cluster-mix, wall_s on sampled-sweep"},
	{Name: "service.queue_wait_ms_p90", Unit: "ms", Better: "lower", Layer: "service", Moves: "job_p50_ms/job_p90_ms on cluster-mix, wall_s on sampled-sweep"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "service", Moves: "job_p50_ms/job_p90_ms on cluster-mix, wall_s on sampled-sweep"},
	{Name: "service.sims_executed", Unit: "count", Better: "lower", Layer: "service", Moves: "job_p50_ms/job_p90_ms on cluster-mix, wall_s on sampled-sweep"},
	{Name: "service.singleflight_merged", Unit: "count", Better: "higher", Layer: "service", Moves: "job_p50_ms/job_p90_ms on cluster-mix, wall_s on sampled-sweep"},
	{Name: "service.rejected", Unit: "count", Better: "lower", Layer: "service", Moves: "job_p50_ms/job_p90_ms on cluster-mix, wall_s on sampled-sweep"},

	{Name: "cluster.self_s", Unit: "s", Better: "lower", Layer: "cluster", Moves: "job_p90_ms on cluster-mix"},
	{Name: "cluster.dispatch_ms_p50", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "job_p90_ms on cluster-mix"},
	{Name: "cluster.dispatch_ms_p90", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "job_p90_ms on cluster-mix"},
	{Name: "cluster.sweep_route_ms_p50", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "job_p90_ms on cluster-mix"},
	{Name: "cluster.execute_route_ms_p50", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "job_p90_ms on cluster-mix"},
	{Name: "cluster.plan_route_ms_p50", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "job_p90_ms on cluster-mix"},
	{Name: "cluster.result_route_ms_p50", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "job_p90_ms on cluster-mix"},
	{Name: "cluster.plan_passes", Unit: "count", Better: "lower", Layer: "cluster", Moves: "wall_s and job_p90_ms on cluster-mix"},
	{Name: "cluster.plan_keys", Unit: "count", Better: "lower", Layer: "cluster", Moves: "wall_s and job_p90_ms on cluster-mix"},
	{Name: "cluster.peer_plans", Unit: "count", Better: "higher", Layer: "cluster", Moves: "wall_s and job_p90_ms on cluster-mix"},
	{Name: "cluster.sim_redundancy", Unit: "ratio", Better: "lower", Layer: "cluster", Moves: "wall_s and job_p90_ms on cluster-mix"},
	{Name: "cluster.peer_cache_hits", Unit: "count", Better: "higher", Layer: "cluster", Moves: "job_p90_ms and error_rate on cluster-mix"},
	{Name: "cluster.steals", Unit: "count", Better: "lower", Layer: "cluster", Moves: "job_p90_ms and error_rate on cluster-mix"},
	{Name: "cluster.node_failures", Unit: "count", Better: "lower", Layer: "cluster", Moves: "job_p90_ms and error_rate on cluster-mix"},

	{Name: "runtime.self_s", Unit: "s", Better: "lower", Layer: "runtime", Moves: "peak_rss_mb and wall_s on every workload"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Layer: "runtime", Moves: "peak_rss_mb and wall_s on every workload"},
	{Name: "runtime.alloc_mb_per_cell", Unit: "MB", Better: "lower", Layer: "runtime", Moves: "peak_rss_mb and wall_s on every workload"},

	{Name: "trace.wall_s", Unit: "s", Better: "lower", Layer: "bench", Moves: "none: wall_s of the traced repetition"},
	{Name: "trace.overhead_s", Unit: "s", Better: "lower", Layer: "bench", Moves: "none: traced wall_s minus the mean of the untraced repetitions around it"},
	{Name: "profile.unattributed_share", Unit: "share", Better: "lower", Layer: "bench", Moves: "none: CPU no fold.txt rule claims"},
}

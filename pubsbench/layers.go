package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// layerNames are the modules the profile fold charges CPU time to.
var layerNames = []string{"pipeline", "emu", "sampling", "experiments", "service", "cluster", "runtime"}

// stageNames are the pipeline stages of the fold.
var stageNames = []string{"fetch", "dispatch", "issue", "commit", "skip"}

// traceReport computes the per-layer metrics of the traced repetition and
// writes its spans, profile and hot stacks under out/traces. untracedWall
// is the mean wall time of the untraced repetitions around it.
func traceReport(wl string, seed int64, out string, untracedWall float64, traced repResult, obs *observer) (map[string]float64, []string, error) {
	stem := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d", wl, seed))
	if err := obs.tr.write(stem + ".spans.jsonl"); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(stem+".pprof", obs.prof.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	stacks, err := readProfile(obs.prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	rules, err := parseFold(foldText)
	if err != nil {
		return nil, nil, err
	}
	f := rules.foldStacks(stacks)
	hf, err := os.Create(stem + ".hot.folded")
	if err != nil {
		return nil, nil, err
	}
	werr := writeCollapsed(hf, hotStacks(stacks, 0.9))
	if cerr := hf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, nil, werr
	}

	m := map[string]float64{}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	for _, l := range layerNames {
		m[l+".self_s"] = sec(f.Layer[l])
	}
	cells := traced.Cells
	cycles := simulatedCycles(cells)
	m["pipeline.cycles"] = cycles
	m["pipeline.ns_per_cycle"] = ratio(float64(f.Layer["pipeline"]), cycles)
	m["pipeline.minst_per_s"] = ratio(detailedInsts(cells)/1e6, m["pipeline.self_s"])
	m["pipeline.skipped_cycle_frac"] = ratio(obs.skippedCycles(), cycles)
	for _, st := range stageNames {
		m["pipeline."+st+"_share"] = f.share(f.Stage[st])
	}
	for k, v := range traced.Modelled {
		if k != "dbp_gm_speedup_pct" && k != "dbp_pairs" {
			m[k] = v
		}
	}

	c := traced.Counters
	planS := sec(f.Activity["plan"])
	passes := c["pubsd_snapshot_plans_total"]
	m["sampling.plan_s"] = planS
	m["sampling.replay_s"] = sec(f.Activity["replay"])
	m["sampling.codec_share"] = f.share(f.Activity["codec"])
	m["sampling.plan_passes"] = passes
	m["sampling.plan_mb"] = c["pubsd_trace_resident_bytes"] / 1e6
	m["sampling.windows"] = c["pubsd_window_replay_latency_count"]
	m["emu.ff_minst_per_s"] = ratio(passes*traced.PlanInsts/1e6, planS)
	m["emu.stream_share"] = f.share(f.LayerAct[[2]string{"emu", ""}] + f.LayerAct[[2]string{"emu", "replay"}])

	sims, memo := c["experiments.sims"], c["experiments.memo_hits"]
	if _, inProcess := c["experiments.sims"]; !inProcess {
		sims, memo = c["pubsd_sims_executed_total"], c["pubsd_runner_memo_hits_total"]
	}
	m["experiments.sims"] = sims
	m["experiments.memo_hit_ratio"] = ratio(memo, memo+sims)

	hits, misses := c["pubsd_cache_hits_total"], c["pubsd_cache_misses_total"]
	m["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["service.sims_executed"] = c["pubsd_sims_executed_total"]
	m["service.singleflight_merged"] = c["pubsd_singleflight_merged_total"]
	m["service.rejected"] = c["pubsd_jobs_rejected_total"] + c["pubsd_jobs_shed_total"]
	m["service.queue_wait_ms_p50"], _ = percentile(traced.QueueWaitMS, 50)
	m["service.queue_wait_ms_p90"], _ = percentile(traced.QueueWaitMS, 90)

	tr := obs.tr
	dispatch := append(tr.durations("dispatch"), tr.durations("dispatch_sweep")...)
	m["cluster.dispatch_ms_p50"], _ = percentile(dispatch, 50)
	m["cluster.dispatch_ms_p90"], _ = percentile(dispatch, 90)
	for _, route := range []string{"sweep", "execute", "plan", "result"} {
		m["cluster."+route+"_route_ms_p50"], _ = percentile(tr.durations("route_"+route), 50)
	}
	if wl == "cluster-mix" {
		m["cluster.plan_passes"] = c["workers.pubsd_snapshot_plans_total"]
		m["cluster.plan_keys"] = c["cluster.plan_keys"]
		m["cluster.peer_plans"] = c["workers.pubsd_snapshot_peer_plans_total"]
		m["cluster.sim_redundancy"] = ratio(c["pubsd_sims_executed_total"], float64(len(cells)))
		m["cluster.peer_cache_hits"] = c["pubsd_cluster_peer_cache_hits_total"]
		m["cluster.steals"] = c["pubsd_cluster_steals_total"]
		m["cluster.node_failures"] = c["pubsd_cluster_node_failures_total"]
	}

	m["runtime.gc_cpu_frac"] = ratio(obs.runtimeDelta(0), obs.runtimeDelta(1))
	m["runtime.alloc_mb_per_cell"] = ratio(obs.runtimeDelta(2)/1e6, float64(traced.Attempted))

	m["trace.wall_s"] = traced.Wall
	m["trace.overhead_s"] = traced.Wall - untracedWall
	m["profile.unattributed_share"] = f.share(f.Unattributed)

	notes := []string{fmt.Sprintf("profile: %.2f CPU-s over %.2f s wall; spans, pprof and hot stacks in %s.*", sec(f.TotalNS), traced.Wall, stem)}
	for _, l := range layerNames {
		notes = append(notes, fmt.Sprintf("layer %-12s %6.1f%% of CPU", l, 100*f.share(f.Layer[l])))
	}
	notes = append(notes,
		fmt.Sprintf("planning (emu + sampling under the plan pass) %.1f%% of CPU", 100*f.share(f.Activity["plan"])),
		fmt.Sprintf("pubsbench itself %.1f%%, unattributed %.1f%%", 100*f.share(f.Layer["bench"]), 100*f.share(f.Unattributed)),
		fmt.Sprintf("tracing overhead: traced %.3f s - untraced %.3f s (mean of the repetitions before and after) = %+.3f s",
			traced.Wall, untracedWall, traced.Wall-untracedWall))
	return m, notes, nil
}

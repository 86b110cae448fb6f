package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/abgate"
	"repro/internal/service"
)

// BENCH_9 measures what cluster-shared sampling plans buy: the wall-clock
// time for a 3-worker fleet to finish a window-major sampled campaign
// (machines × workloads, every cell sharing its workload's plan) with plan
// sharing plus batched sweep dispatch ON, versus the same fleet with the
// feature OFF (per-cell dispatch, every node paying its own functional
// fast-forward pass per workload). The resource under test is the
// functional pass itself — the dominant cost of a sampled campaign — so
// the scenarios are fast-forward-heavy. Both topologies must produce
// byte-identical CellResults per content address; the report records the
// fleet-wide functional pass count so the exactly-once contract is
// checkable from the artifact.

// samplingBenchWorkloads is the campaign's workload axis: one sampling
// plan each.
var samplingBenchWorkloads = []string{"matmul", "chess", "goplay", "pathfind"}

// samplingBenchMachines is the campaign's machine axis: distinct resolved
// names, so every cell is a distinct content address.
var samplingBenchMachines = []service.MachineSpec{
	{Machine: "base"},
	{Machine: "pubs"},
	{Machine: "age"},
	{Machine: "pubs+age"},
	{Machine: "pubs", PriorityEntries: 16},
	{Machine: "pubs", ConfCounterBits: 4},
}

// runSamplingTopology boots a 3-worker fleet plus a coordinator, submits
// the campaign once, and returns its submit-to-done time, the fleet
// counters, and every cell's marshaled result keyed by content address —
// the bit-identity evidence. Workers are sized so admission never
// interferes: the functional pass, not queue depth, is what BENCH_9
// measures.
func runSamplingTopology(ctx context.Context, sharing bool, spec service.CampaignSpec) (abgate.Outcome, error) {
	const n = 3
	workers := make([]*benchNode, 0, n)
	shutdown := func() {
		sctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		for _, w := range workers {
			_ = w.svc.Shutdown(sctx)
			_ = w.srv.Shutdown(sctx)
		}
	}
	defer shutdown()

	peers := make(map[string]string, n)
	for i := 0; i < n; i++ {
		w, err := startBenchNode(service.Config{
			NodeID:        fmt.Sprintf("sbench-w%d", i+1),
			Workers:       2,
			QueueDepth:    64,
			MaxActiveJobs: 16,
		})
		if err != nil {
			return abgate.Outcome{}, err
		}
		if !sharing {
			w.wk.DisableReplication()
		}
		workers = append(workers, w)
		peers[w.svc.NodeID()] = w.url
	}
	coord := NewCoordinator()
	ccfg := service.Config{
		NodeID:        "sbench-coord",
		Workers:       8,
		QueueDepth:    16,
		MaxActiveJobs: 8,
		Remote:        coord.Remote,
	}
	if sharing {
		ccfg.RemoteSweep = coord.RemoteSweep
	}
	csvc, err := service.New(ccfg)
	if err != nil {
		return abgate.Outcome{}, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = csvc.Shutdown(sctx)
	}()
	coord.BindCounters(csvc.ClusterCounters())
	for _, w := range workers {
		coord.AddNode(w.svc.NodeID(), w.url)
		w.wk.SetPeers(peers)
	}

	t0 := time.Now()
	job, err := csvc.Submit(spec)
	if err != nil {
		return abgate.Outcome{}, err
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		return abgate.Outcome{}, ctx.Err()
	}
	wall := time.Since(t0)

	st := job.Status()
	if st.State != service.JobDone {
		return abgate.Outcome{}, fmt.Errorf("sampling bench campaign failed: %v", st.Errors)
	}
	results := make(map[string]string, len(st.Results))
	for _, res := range st.Results {
		data, err := json.Marshal(res)
		if err != nil {
			return abgate.Outcome{}, err
		}
		results[res.Key] = string(data)
	}

	// Fleet-wide sums over the 3 workers. functional_plans counts local
	// functional passes only (pubsd_snapshot_plans_total), so with sharing
	// on it must equal the workload count: one pass per plan key
	// fleet-wide.
	c := map[string]float64{"cells": float64(st.TotalCells)}
	for _, w := range workers {
		m := parseMetricsText(w.svc.MetricsText())
		c["functional_plans"] += float64(m["pubsd_snapshot_plans_total"])
		c["peer_plans_adopted"] += float64(m["pubsd_snapshot_peer_plans_total"])
		c["plan_pushes"] += float64(m["pubsd_plan_pushes_total"])
		c["result_pushes"] += float64(m["pubsd_cluster_result_pushes_total"])
		c["peer_cache_hits"] += float64(m["pubsd_cluster_peer_cache_hits_total"])
		c["sims_executed"] += float64(m["pubsd_sims_executed_total"])
	}
	cm := parseMetricsText(csvc.MetricsText())
	c["remote_cells"] = float64(cm["pubsd_cluster_remote_cells_total"])
	c["steals"] = float64(cm["pubsd_cluster_steals_total"])
	return abgate.Outcome{Result: results, Counters: c, Elapsed: wall}, nil
}

// SamplingBenchGate is BENCH_9: per window geometry, the wall time of a
// window-major sampled campaign on a 3-worker fleet with plan sharing and
// batched sweep dispatch off (A: per-cell dispatch, every node paying its
// own functional pass per workload) against on (B). Both must produce
// byte-identical results per content address; the floor is 1.5x, the
// baseline tolerance 20%, and with sharing on the fleet must pay exactly
// one functional pass per workload. ctx bounds every campaign.
func SamplingBenchGate(ctx context.Context) abgate.Gate {
	g := abgate.Gate{
		Name:   "BENCH_9",
		Groups: []abgate.Group{{Key: "geomean_speedup", Floor: 1.5, Tolerance: 0.20}},
		Checks: []func(*abgate.Report) []string{onePassPerWorkload},
	}
	for _, sc := range []struct {
		name            string
		windows         int
		warmup, measure uint64
		fastForward     uint64
	}{
		// Fast-forward dominates: the plan is nearly the whole campaign, so
		// sharing it approaches a 3x cut in fleet functional work.
		{name: "plan-heavy", windows: 3, warmup: 1_000, measure: 3_000, fastForward: 6_000_000},
		// Replay and planning comparable: sharing still wins, by less.
		{name: "balanced", windows: 4, warmup: 2_000, measure: 6_000, fastForward: 2_000_000},
	} {
		spec := service.CampaignSpec{
			Machines:    samplingBenchMachines,
			Workloads:   samplingBenchWorkloads,
			Warmup:      sc.warmup,
			Measure:     sc.measure,
			Windows:     sc.windows,
			FastForward: sc.fastForward,
			WindowMajor: true,
		}
		g.Cases = append(g.Cases, abgate.Case{
			Name: sc.name,
			A:    func() (abgate.Outcome, error) { return runSamplingTopology(ctx, false, spec) },
			B:    func() (abgate.Outcome, error) { return runSamplingTopology(ctx, true, spec) },
		})
	}
	return g
}

// onePassPerWorkload fails every case whose sharing-on fleet paid other
// than one functional pass per workload.
func onePassPerWorkload(r *abgate.Report) []string {
	var fails []string
	want := float64(len(samplingBenchWorkloads))
	for _, e := range r.Entries {
		var got float64
		if e.B != nil {
			got = e.B.Counters["functional_plans"]
		}
		if got != want {
			fails = append(fails, fmt.Sprintf("%s: fleet paid %.0f functional passes with sharing on, want exactly %.0f (one per workload)",
				e.Name, got, want))
		}
	}
	return fails
}

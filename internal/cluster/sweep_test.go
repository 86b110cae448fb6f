package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
)

// sweepSpec is the sampled, window-major campaign the sweep tests run:
// 12 cells (6 machine variants × 2 workloads) sharing 2 sampling plans,
// sized so the functional pass is real work but the whole grid stays fast
// on one core.
func sweepSpec() service.CampaignSpec {
	return service.CampaignSpec{
		Machines: []service.MachineSpec{
			{Machine: "base"}, {Machine: "pubs"}, {Machine: "age"},
			{Machine: "pubs+age"}, {Machine: "pubs", PriorityEntries: 16},
			{Machine: "pubs", ConfCounterBits: 4},
		},
		Workloads:   []string{"matmul", "chess"},
		Warmup:      2_000,
		Measure:     4_000,
		Windows:     2,
		FastForward: 100_000,
		WindowMajor: true,
	}
}

// startSweepCoordinator is startCoordinator plus the batched sweep seam:
// window-major sampled jobs dispatch one request per (node, workload)
// batch through RemoteSweep instead of a one-cell batch per cell.
func startSweepCoordinator(t *testing.T, id string, workers []*testNode) (*service.Service, *Coordinator) {
	t.Helper()
	coord := NewCoordinator()
	svc := startService(t, service.Config{
		NodeID:      id,
		Workers:     8,
		Remote:      coord.Remote,
		RemoteSweep: coord.RemoteSweep,
	})
	coord.BindCounters(svc.ClusterCounters())
	peers := make(map[string]string, len(workers))
	for _, w := range workers {
		peers[w.id] = w.srv.URL
	}
	for _, w := range workers {
		coord.AddNode(w.id, w.srv.URL)
		w.wk.SetPeers(peers)
	}
	return svc, coord
}

// TestClusterSweepPlanSharingExactlyOnce is the tentpole's contract: a
// sampled window-major sweep over a 3-node cluster pays exactly one
// functional planning pass per workload fleet-wide — every other node
// adopts the planner's serialized plan — while producing results
// bit-identical to a single-node run, each cell detailed-simulated exactly
// once, and the whole grid dispatched as node batches, not one-cell batches.
func TestClusterSweepPlanSharingExactlyOnce(t *testing.T) {
	spec := sweepSpec()
	cells := len(spec.Machines) * len(spec.Workloads)

	single := startService(t, service.Config{NodeID: "single", Workers: 1})
	refJSON := resultsJSON(t, submitAndWait(t, single, spec))

	workers := []*testNode{
		startWorker(t, "w1", service.Config{Workers: 2}, nil),
		startWorker(t, "w2", service.Config{Workers: 2}, nil),
		startWorker(t, "w3", service.Config{Workers: 2}, nil),
	}
	csvc, _ := startSweepCoordinator(t, "coord", workers)
	gotJSON := resultsJSON(t, submitAndWait(t, csvc, spec))

	if gotJSON != refJSON {
		t.Errorf("sweep results differ from single-node run:\ncluster: %s\nsingle:  %s", gotJSON, refJSON)
	}

	var plans, peerPlans, pushes, totalSims uint64
	for _, w := range workers {
		plans += metricValue(t, w.svc, "pubsd_snapshot_plans_total")
		peerPlans += metricValue(t, w.svc, "pubsd_snapshot_peer_plans_total")
		pushes += metricValue(t, w.svc, "pubsd_plan_pushes_total")
		totalSims += sims(t, w.svc)
	}
	if plans != uint64(len(spec.Workloads)) {
		t.Errorf("fleet paid %d functional passes for %d workloads; plan sharing is not exactly-once", plans, len(spec.Workloads))
	}
	if peerPlans == 0 {
		t.Error("no peer plans adopted: every node planned for itself")
	}
	if pushes != plans {
		t.Errorf("%d plan pushes for %d local passes; every fresh plan should replicate to the successor", pushes, plans)
	}
	if totalSims != uint64(cells) {
		t.Errorf("fleet simulated %d cells, want %d", totalSims, cells)
	}
	if got := metricValue(t, csvc, "pubsd_cluster_remote_cells_total"); got != uint64(cells) {
		t.Errorf("coordinator settled %d remote cells, want %d", got, cells)
	}
	t.Logf("fleet: %d plans, %d adopted, %d sims for %d cells", plans, peerPlans, totalSims, cells)
}

// TestPlannerURLTravelsWithBatch: a worker that receives a sweep batch for
// a plan some other node already computed adopts that plan instead of
// paying a redundant functional pass, in both ways the protocol allows:
// the batch names that node as planner and carries its URL (so a worker
// with an empty peer map — its membership view lost to a stale push, or
// never received — still reaches it), or the batch designates the worker
// itself, as a later sweep of the same workload may, and its cache-only
// peer sweep finds the plan before it pays.
func TestPlannerURLTravelsWithBatch(t *testing.T) {
	// The planner plans while simulating two machines; the worker is asked
	// for two others under the same plan key, so no peer holds its cells.
	spec := sweepSpec()
	spec.Workloads = spec.Workloads[:1]
	planned, asked := spec, spec
	planned.Machines, asked.Machines = spec.Machines[:2], spec.Machines[2:4]
	planner := startWorker(t, "wp", service.Config{Workers: 2}, nil)
	submitAndWait(t, planner.svc, planned) // the planner pays the pass
	ref := submitAndWait(t, startService(t, service.Config{NodeID: "ref", Workers: 2}), asked)
	planKey, err := experiments.Options{
		Warmup: spec.Warmup, Measure: spec.Measure,
		SampleWindows: spec.Windows, SampleFastForward: spec.FastForward,
	}.PlanKey(spec.Workloads[0])
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		peers bool // the worker's peer map holds the planner
		self  bool // the batch designates the worker itself
	}{
		{name: "named-planner-no-peers"},
		{name: "self-designated", peers: true, self: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := startWorker(t, "wq", service.Config{Workers: 2}, nil)
			req := sweepRequest{PlanKey: planKey, Planner: planner.id, PlannerURL: planner.srv.URL}
			if tc.peers {
				w.wk.SetPeers(map[string]string{planner.id: planner.srv.URL})
			}
			if tc.self {
				req.Planner, req.PlannerURL = w.id, w.srv.URL
			}
			want := make(map[string]service.CellResult)
			for i, res := range ref.Results {
				cell := asked
				cell.Machines = asked.Machines[i : i+1]
				req.Cells = append(req.Cells, service.RemoteCell{Key: res.Key, Spec: cell})
				want[res.Key] = res
			}
			lines, err := executeSweepBatch(context.Background(), SharedClient(), w.srv.URL, req)
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			if len(lines) != len(req.Cells) {
				t.Fatalf("%d lines for %d cells", len(lines), len(req.Cells))
			}
			for _, ln := range lines {
				got, _ := json.Marshal(ln.Result)
				ref, _ := json.Marshal(want[ln.Key])
				if ln.Source != "executed" || !bytes.Equal(got, ref) {
					t.Errorf("cell %s: %s %q differs from a single-node run", ln.Key, ln.Source, ln.Error)
				}
			}
			if got := metricValue(t, w.svc, "pubsd_snapshot_plans_total"); got != 0 {
				t.Errorf("worker paid %d functional passes for a plan its peer held", got)
			}
			if got := metricValue(t, w.svc, "pubsd_snapshot_peer_plans_total"); got != 1 {
				t.Errorf("worker adopted %d peer plans, want 1", got)
			}
		})
	}
}

// TestStaticPeersOutrankStalePushes: a static member map outranks the
// asynchronous push of any membership change made before it, so a slow
// broadcast from an earlier AddNode cannot shrink a worker's view.
func TestStaticPeersOutrankStalePushes(t *testing.T) {
	w := startWorker(t, "w1", service.Config{}, nil)
	stale := uint64(time.Now().UnixNano())
	w.wk.SetPeers(map[string]string{"w1": w.srv.URL, "w2": "http://w2.invalid"})
	if w.wk.ApplyPeers(map[string]string{"w1": w.srv.URL}, stale) {
		t.Error("a push stamped before the static map overwrote it")
	}
	if peers := w.wk.peerList(); len(peers) != 1 {
		t.Errorf("peer view %v, want the static map's one peer", peers)
	}
	if !w.wk.ApplyPeers(map[string]string{"w1": w.srv.URL}, uint64(time.Now().UnixNano())) {
		t.Error("a later membership change did not apply over the static map")
	}
}

// TestClusterSweepResultReplicationFailover is the proactive-replication
// contract: every executed cell is pushed to its ring successor, so when
// the ring owner dies mid-campaign the successor answers all of the dead
// node's completed cells straight from its replica cache — zero
// re-simulations anywhere, results still bit-identical.
func TestClusterSweepResultReplicationFailover(t *testing.T) {
	spec := testSpec()
	cells := len(spec.Machines) * len(spec.Workloads)

	killer := &killableWorker{}
	wrap := func(inner http.Handler) http.Handler {
		killer.inner = inner
		return killer
	}
	w1 := startWorker(t, "w1", service.Config{}, wrap)
	killer.setOnKill(w1.srv.CloseClientConnections)
	w2 := startWorker(t, "w2", service.Config{}, nil)
	csvc, _ := startCoordinator(t, "coord", []*testNode{w1, w2})

	firstJSON := resultsJSON(t, submitAndWait(t, csvc, spec))
	w1Sims, w2Sims := sims(t, w1.svc), sims(t, w2.svc)
	if w1Sims+w2Sims != uint64(cells) {
		t.Fatalf("first campaign simulated %d cells, want %d", w1Sims+w2Sims, cells)
	}
	if w1Sims == 0 {
		t.Fatal("ring put no cells on w1; the failover would be vacuous")
	}

	// Replication is asynchronous; wait until both nodes report every
	// executed cell successfully pushed to their successor (with two nodes,
	// each is the other's successor, so both end up holding all cells).
	deadline := time.Now().Add(30 * time.Second)
	for {
		pushed := metricValue(t, w1.svc, "pubsd_cluster_result_pushes_total") +
			metricValue(t, w2.svc, "pubsd_cluster_result_pushes_total")
		if pushed >= uint64(cells) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication stalled: %d of %d results pushed", pushed, cells)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the owner. A fresh, cold coordinator reruns the campaign: its
	// first dispatch to w1 dies mid-flight, w1 leaves the ring, and w2 —
	// w1's successor — must settle every cell w1 completed from the
	// replicas w1 pushed, without a single new simulation.
	killer.kill()
	c2, _ := startCoordinator(t, "coord2", []*testNode{w1, w2})
	rerunJSON := resultsJSON(t, submitAndWait(t, c2, spec))

	if rerunJSON != firstJSON {
		t.Error("post-failover rerun is not bit-identical")
	}
	if got := sims(t, w2.svc); got != w2Sims {
		t.Errorf("successor re-simulated: %d sims, had %d before the kill", got, w2Sims)
	}
	if got := sims(t, w1.svc); got != w1Sims {
		t.Errorf("dead node's sims moved: %d, had %d", got, w1Sims)
	}
	if got := metricValue(t, c2, "pubsd_cluster_node_failures_total"); got == 0 {
		t.Error("coordinator never noticed the dead node")
	}
}

// BenchmarkDispatch measures the per-dispatch HTTP overhead the cluster
// pays per remote cell, comparing the shared tuned client (keep-alives, a
// fleet-sized idle pool) against a naive per-request client — the
// difference is a new TCP connection per cell.
func BenchmarkDispatch(b *testing.B) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	body := []byte(`{"key":"bench"}`)

	dispatch := func(b *testing.B, hc *http.Client) {
		b.Helper()
		req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, srv.URL, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		var msg struct{ OK bool }
		if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}

	b.Run("shared", func(b *testing.B) {
		hc := SharedClient()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dispatch(b, hc)
		}
	})
	b.Run("per-request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hc := &http.Client{Transport: &http.Transport{}}
			dispatch(b, hc)
			hc.CloseIdleConnections()
		}
	})
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
)

// testSpec is the campaign every cluster test runs: 8 cells across two
// machines, with explicit windows so the submitter — not any daemon's
// defaults — pins the content addresses. Small windows keep the whole grid
// fast on one core.
func testSpec() service.CampaignSpec {
	return service.CampaignSpec{
		Machines:  []service.MachineSpec{{Machine: "base"}, {Machine: "pubs"}},
		Workloads: []string{"matmul", "chess", "goplay", "pathfind"},
		Warmup:    2_000, Measure: 8_000,
	}
}

func testOptions() experiments.Options {
	return experiments.Options{Warmup: 2_000, Measure: 8_000}
}

// testNode is one worker daemon behind an HTTP server.
type testNode struct {
	id  string
	svc *service.Service
	wk  *Worker
	srv *httptest.Server
}

func startService(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	if cfg.DefaultOptions.Warmup == 0 && cfg.DefaultOptions.Measure == 0 {
		cfg.DefaultOptions = testOptions()
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New(%s): %v", cfg.NodeID, err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc
}

// startWorker boots a worker daemon and serves its cluster endpoints. The
// optional wrap lets a test interpose failure injection between the
// network and the worker.
func startWorker(t *testing.T, id string, cfg service.Config, wrap func(http.Handler) http.Handler) *testNode {
	t.Helper()
	cfg.NodeID = id
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	svc := startService(t, cfg)
	wk := NewWorker(svc)
	h := wk.Handler(svc.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return &testNode{id: id, svc: svc, wk: wk, srv: srv}
}

// startCoordinator boots a coordinator daemon over the given workers and
// wires every worker's peer list, deterministically (no async pushes).
func startCoordinator(t *testing.T, id string, workers []*testNode) (*service.Service, *Coordinator) {
	t.Helper()
	coord := NewCoordinator()
	svc := startService(t, service.Config{
		NodeID:  id,
		Workers: 8, // dispatch concurrency; remote cells block on HTTP, not CPU
		Remote:  coord.Remote,
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

func waitJob(t *testing.T, j *service.Job) service.JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
	return j.Status()
}

func submitAndWait(t *testing.T, svc *service.Service, spec service.CampaignSpec) service.JobStatus {
	t.Helper()
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitJob(t, job)
	if st.State != service.JobDone {
		t.Fatalf("job %s finished %s: %v", st.ID, st.State, st.Errors)
	}
	return st
}

// metricValue reads one integer metric from a daemon's /metrics text,
// summing across label sets (quantile series excluded).
func metricValue(t *testing.T, svc *service.Service, name string) uint64 {
	t.Helper()
	var sum uint64
	for _, ln := range strings.Split(svc.MetricsText(), "\n") {
		n, v, ok := strings.Cut(strings.TrimSpace(ln), " ")
		if !ok {
			continue
		}
		if base, labels, cut := strings.Cut(n, "{"); cut {
			if strings.Contains(labels, "quantile=") {
				continue
			}
			n = base
		}
		if n != name {
			continue
		}
		x, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("metric %s: parsing %q: %v", name, v, err)
		}
		sum += x
	}
	return sum
}

func sims(t *testing.T, svc *service.Service) uint64 {
	return metricValue(t, svc, "pubsd_sims_executed_total")
}

// resultsJSON canonicalizes a job's results for byte-level comparison.
func resultsJSON(t *testing.T, st service.JobStatus) string {
	t.Helper()
	data, err := json.Marshal(st.Results)
	if err != nil {
		t.Fatalf("marshaling results: %v", err)
	}
	return string(data)
}

// TestClusterBitIdentityAndExactlyOnce is the differential contract: a
// campaign submitted to a 3-node cluster returns CellResults byte-identical
// to the same campaign on a single node, with each unique cell simulated
// exactly once cluster-wide — and a concurrent duplicate burst afterwards
// adds zero simulations anywhere.
func TestClusterBitIdentityAndExactlyOnce(t *testing.T) {
	spec := testSpec()
	cells := len(spec.Machines) * len(spec.Workloads)

	// Single-node reference.
	single := startService(t, service.Config{NodeID: "single", Workers: 1})
	refJSON := resultsJSON(t, submitAndWait(t, single, spec))

	// 3-worker cluster.
	workers := []*testNode{
		startWorker(t, "w1", service.Config{}, nil),
		startWorker(t, "w2", service.Config{}, nil),
		startWorker(t, "w3", service.Config{}, nil),
	}
	csvc, _ := startCoordinator(t, "coord", workers)
	gotJSON := resultsJSON(t, submitAndWait(t, csvc, spec))

	if gotJSON != refJSON {
		t.Errorf("cluster results differ from single-node run:\ncluster: %s\nsingle:  %s", gotJSON, refJSON)
	}
	var clusterSims uint64
	for _, w := range workers {
		clusterSims += sims(t, w.svc)
	}
	if clusterSims != uint64(cells) {
		t.Errorf("cluster executed %d simulations for %d unique cells", clusterSims, cells)
	}
	if got := sims(t, csvc); got != 0 {
		t.Errorf("coordinator simulated %d cells locally despite live workers", got)
	}
	if got := metricValue(t, csvc, "pubsd_cluster_remote_cells_total"); got != uint64(cells) {
		t.Errorf("coordinator dispatched %d remote cells, want %d", got, cells)
	}

	// Duplicate burst: the same campaign four more times, concurrently.
	// The coordinator's content-addressed cache and singleflight absorb all
	// of it — zero new simulations on any node.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		job, err := csvc.Submit(spec)
		if err != nil {
			t.Fatalf("duplicate submit: %v", err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); waitJob(t, job) }()
	}
	wg.Wait()
	var afterBurst uint64
	for _, w := range workers {
		afterBurst += sims(t, w.svc)
	}
	if afterBurst != clusterSims {
		t.Errorf("duplicate burst re-simulated: %d sims before, %d after", clusterSims, afterBurst)
	}
}

// TestSingleCellTravelsAsBatchOfOne: a coordinator with only the per-cell
// seam set still has one execution path — every cell of a contiguous job
// reaches its worker as a one-cell sweep batch, the results are
// byte-identical to a single node, and the retired per-cell endpoint is
// gone from the worker.
func TestSingleCellTravelsAsBatchOfOne(t *testing.T) {
	spec := testSpec()
	spec.Workloads = spec.Workloads[:2]
	cells := len(spec.Machines) * len(spec.Workloads)

	single := startService(t, service.Config{NodeID: "single", Workers: 1})
	refJSON := resultsJSON(t, submitAndWait(t, single, spec))

	var mu sync.Mutex
	var batches []int // cells per sweep request, across both workers
	var routes []string
	logRoutes := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			routes = append(routes, r.Method+" "+r.URL.Path)
			mu.Unlock()
			if r.Method == http.MethodPost && r.URL.Path == "/v1/cluster/sweep" {
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				var req sweepRequest
				if err := json.Unmarshal(body, &req); err != nil {
					t.Errorf("undecodable sweep request: %v", err)
				}
				mu.Lock()
				batches = append(batches, len(req.Cells))
				mu.Unlock()
			}
			inner.ServeHTTP(w, r)
		})
	}
	w1 := startWorker(t, "w1", service.Config{}, logRoutes)
	w2 := startWorker(t, "w2", service.Config{}, logRoutes)
	csvc, _ := startCoordinator(t, "coord", []*testNode{w1, w2})
	if gotJSON := resultsJSON(t, submitAndWait(t, csvc, spec)); gotJSON != refJSON {
		t.Errorf("cluster results differ from single-node run:\ncluster: %s\nsingle:  %s", gotJSON, refJSON)
	}

	mu.Lock()
	if len(batches) != cells {
		t.Errorf("%d sweep requests for %d cells: %v", len(batches), cells, batches)
	}
	for _, n := range batches {
		if n != 1 {
			t.Errorf("a single-cell dispatch carried %d cells", n)
		}
	}
	for _, r := range routes {
		if strings.HasPrefix(r, "POST /v1/cluster/") && r != "POST /v1/cluster/sweep" &&
			r != "POST /v1/cluster/peers" && r != "POST /v1/cluster/result" {
			t.Errorf("unexpected cluster route %q", r)
		}
	}
	mu.Unlock()

	resp, err := http.Post(w1.srv.URL+"/v1/cluster/execute", "application/json", strings.NewReader(`{"key":"x"}`))
	if err != nil {
		t.Fatalf("POST execute: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/cluster/execute answered %s, want 404 or 405", resp.Status)
	}
}

// TestClusterTwoTierPeerFetch checks the peer tier: after a campaign runs
// on a one-node cluster, a rerun on a cold coordinator over that node plus
// a fresh joiner completes with zero new simulations — the joiner's cells
// are answered by hash fetches from the node that already has them.
func TestClusterTwoTierPeerFetch(t *testing.T) {
	spec := testSpec()
	w1 := startWorker(t, "w1", service.Config{}, nil)
	c1, _ := startCoordinator(t, "coord1", []*testNode{w1})
	firstJSON := resultsJSON(t, submitAndWait(t, c1, spec))
	baseSims := sims(t, w1.svc)
	if baseSims == 0 {
		t.Fatal("first run executed no simulations")
	}

	// w2 joins cold; coordinator 2 is cold too, so nothing can answer from
	// a submit-level cache — only the cluster's two-tier store.
	w2 := startWorker(t, "w2", service.Config{}, nil)
	c2, _ := startCoordinator(t, "coord2", []*testNode{w1, w2})
	rerunJSON := resultsJSON(t, submitAndWait(t, c2, spec))

	if rerunJSON != firstJSON {
		t.Errorf("rerun over the grown ring is not bit-identical")
	}
	if got := sims(t, w1.svc); got != baseSims {
		t.Errorf("w1 re-simulated: %d sims, want %d", got, baseSims)
	}
	if got := sims(t, w2.svc); got != 0 {
		t.Errorf("w2 simulated %d cells that w1 already had", got)
	}
	peerHits := metricValue(t, w2.svc, "pubsd_cluster_peer_cache_hits_total")
	if peerHits == 0 {
		t.Error("no peer-cache hits: the joiner never fetched from its peer")
	}
	t.Logf("rerun: %d peer-cache hits on w2, 0 new simulations", peerHits)
}

// killableWorker wraps a worker's handler with a kill switch: once killed,
// new requests abort their connection and every established connection is
// severed (onKill), which is how a kill -9 looks from the coordinator's
// side — including for requests the worker was mid-way through serving.
type killableWorker struct {
	inner http.Handler
	dead  atomic.Bool

	mu     sync.Mutex
	onKill func()
}

func (k *killableWorker) setOnKill(f func()) {
	k.mu.Lock()
	k.onKill = f
	k.mu.Unlock()
}

func (k *killableWorker) kill() {
	k.dead.Store(true)
	k.mu.Lock()
	f := k.onKill
	k.mu.Unlock()
	if f != nil {
		f()
	}
}

func (k *killableWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	k.inner.ServeHTTP(w, r)
}

// killOnWrite runs kill just before the first body write of a response —
// for a sweep stream, the moment the worker has a finished cell to report.
type killOnWrite struct {
	http.ResponseWriter
	kill func()
}

func (k *killOnWrite) Write(p []byte) (int, error) {
	k.kill()
	return k.ResponseWriter.Write(p)
}

func (k *killOnWrite) Flush() {
	if f, ok := k.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestClusterFailover kills a worker mid-campaign and checks the re-shard
// path: the campaign still completes bit-identically to a single-node
// reference, the dead node leaves the ring, and — after the node restarts
// under its old identity with its old journal and checkpoint store — a
// cold rerun completes with zero new simulations anywhere: every cell is
// answered by a surviving peer's cache or the restarted node's durable
// store, never re-simulated.
func TestClusterFailover(t *testing.T) {
	spec := testSpec()
	single := startService(t, service.Config{NodeID: "single", Workers: 1})
	refJSON := resultsJSON(t, submitAndWait(t, single, spec))

	w1Dir := t.TempDir()
	w1Journal := t.TempDir()

	// w1 dies the moment it finishes its first cell: connections are
	// severed mid-flight (responses in flight may or may not land — both
	// happen in real failures) and every later request aborts. The kill is
	// synchronous with the first cell's completion — just before its line
	// is written to the sweep stream, so that report is lost with the node:
	// an asynchronous kill raced against the remaining cells, and fast
	// simulation (the idle-skip bursts) let w1 finish its whole share before
	// the kill landed, leaving the ring intact.
	killer := &killableWorker{}
	wrap := func(inner http.Handler) http.Handler {
		var firstDone sync.Once
		killer.inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/sweep") {
				w = &killOnWrite{ResponseWriter: w, kill: func() { firstDone.Do(killer.kill) }}
			}
			inner.ServeHTTP(w, r)
		})
		return killer
	}
	w1 := startWorker(t, "w1", service.Config{CheckpointDir: w1Dir, JournalDir: w1Journal}, wrap)
	killer.setOnKill(w1.srv.CloseClientConnections)
	w2 := startWorker(t, "w2", service.Config{}, nil)
	csvc, coord := startCoordinator(t, "coord", []*testNode{w1, w2})

	st := submitAndWait(t, csvc, spec)
	if got := resultsJSON(t, st); got != refJSON {
		t.Errorf("post-failover results differ from single-node reference")
	}
	coord.mu.Lock()
	onRing := coord.ring.Has("w1")
	coord.mu.Unlock()
	if onRing {
		t.Fatal("dead worker still on the ring")
	}
	if got := metricValue(t, csvc, "pubsd_cluster_node_failures_total"); got == 0 {
		t.Error("coordinator recorded no node failures")
	}
	if got := metricValue(t, csvc, "pubsd_cluster_steals_total"); got == 0 {
		t.Error("no steals recorded: re-sharded cells should count as steals")
	}

	// "Restart" w1: drain the old process (its accepted single-cell jobs
	// finish and checkpoint), then boot a fresh daemon on the same node ID,
	// journal, and checkpoint store. The fresh daemon replays the journal;
	// every replayed job must answer from the checkpoint store, not by
	// re-simulating.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	_ = w1.svc.Shutdown(ctx)
	cancel()
	w1r := startWorker(t, "w1", service.Config{CheckpointDir: w1Dir, JournalDir: w1Journal}, nil)

	w2Sims := sims(t, w2.svc)
	c2, _ := startCoordinator(t, "coord2", []*testNode{w1r, w2})
	rerunJSON := resultsJSON(t, submitAndWait(t, c2, spec))
	if rerunJSON != refJSON {
		t.Errorf("post-restart rerun is not bit-identical")
	}
	if got := sims(t, w1r.svc); got != 0 {
		t.Errorf("restarted node re-simulated %d cells", got)
	}
	if got := sims(t, w2.svc); got != w2Sims {
		t.Errorf("survivor re-simulated: %d sims, had %d", got, w2Sims)
	}
	// The restarted node owns cells again, and it answered every one of
	// them without simulating: from its checkpoint store or a peer fetch.
	durable := metricValue(t, w1r.svc, "pubsd_runner_checkpoint_hits_total") +
		metricValue(t, w1r.svc, "pubsd_cluster_peer_cache_hits_total")
	if durable == 0 {
		t.Error("restarted node answered no cells from checkpoint or peer tiers")
	}
}

// TestClusterRestartServesFromCheckpoints isolates the durable tier: a
// lone worker runs a campaign, restarts, and a cold coordinator reruns the
// campaign with zero simulations — every cell answered by the checkpoint
// store the first run wrote, since there are no peers to fetch from.
func TestClusterRestartServesFromCheckpoints(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	cells := len(spec.Machines) * len(spec.Workloads)

	w := startWorker(t, "w1", service.Config{CheckpointDir: dir}, nil)
	c1, _ := startCoordinator(t, "coord1", []*testNode{w})
	firstJSON := resultsJSON(t, submitAndWait(t, c1, spec))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	_ = w.svc.Shutdown(ctx)
	cancel()
	wr := startWorker(t, "w1", service.Config{CheckpointDir: dir}, nil)
	c2, _ := startCoordinator(t, "coord2", []*testNode{wr})

	if got := resultsJSON(t, submitAndWait(t, c2, spec)); got != firstJSON {
		t.Errorf("checkpoint-served rerun is not bit-identical")
	}
	if got := sims(t, wr.svc); got != 0 {
		t.Errorf("restarted node re-simulated %d checkpointed cells", got)
	}
	if got := metricValue(t, wr.svc, "pubsd_runner_checkpoint_hits_total"); got != uint64(cells) {
		t.Errorf("checkpoint store answered %d cells, want %d", got, cells)
	}
}

// TestClusterSaturationSteals saturates one worker's admission control and
// checks that pushed-back cells execute on the other node instead of
// failing: the work-stealing path, observable as steals on the coordinator.
// w1's one-token tenant bucket makes the 429s deterministic — after its
// first acceptance, every further dispatch within the refill window is
// refused and must steal.
func TestClusterSaturationSteals(t *testing.T) {
	w1 := startWorker(t, "w1", service.Config{TenantRate: 0.05, TenantBurst: 1}, nil)
	w2 := startWorker(t, "w2", service.Config{}, nil)
	csvc, _ := startCoordinator(t, "coord", []*testNode{w1, w2})

	spec := testSpec()
	spec.Workloads = append(spec.Workloads, "parser", "compress", "hashmix", "stencil")
	st := submitAndWait(t, csvc, spec)
	cells := len(spec.Machines) * len(spec.Workloads)
	if len(st.Results) != cells {
		t.Fatalf("campaign returned %d results, want %d", len(st.Results), cells)
	}
	total := sims(t, w1.svc) + sims(t, w2.svc)
	if total != uint64(cells) {
		t.Errorf("%d simulations for %d unique cells", total, cells)
	}
	if steals := metricValue(t, csvc, "pubsd_cluster_steals_total"); steals == 0 {
		t.Error("no steals recorded off the rate-limited node")
	} else {
		t.Logf("%d cells stolen off the saturated node", steals)
	}
}

// TestJoinEndpoint covers the control plane: a worker joining over HTTP
// lands on the ring and receives the member map; the nodes listing agrees.
func TestJoinEndpoint(t *testing.T) {
	w1 := startWorker(t, "w1", service.Config{}, nil)
	csvc, coord := startCoordinator(t, "coord", []*testNode{w1})
	srv := httptest.NewServer(coord.Handler(csvc.Handler()))
	t.Cleanup(srv.Close)

	w2 := startWorker(t, "w2", service.Config{}, nil)
	peers, epoch, err := Join(context.Background(), http.DefaultClient, srv.URL, "w2", w2.srv.URL)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if epoch == 0 {
		t.Fatal("join response carried no membership epoch")
	}
	w2.wk.ApplyPeers(peers, epoch)
	if len(peers) != 2 || peers["w1"] == "" || peers["w2"] != w2.srv.URL {
		t.Fatalf("join returned wrong member map: %v", peers)
	}
	coord.mu.Lock()
	onRing := coord.ring.Has("w2")
	coord.mu.Unlock()
	if !onRing {
		t.Fatal("joined worker not on the ring")
	}

	resp, err := http.Get(srv.URL + "/v1/cluster/nodes")
	if err != nil {
		t.Fatalf("GET nodes: %v", err)
	}
	defer resp.Body.Close()
	var msg peersMsg
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatalf("decoding nodes: %v", err)
	}
	if fmt.Sprint(msg.Peers) != fmt.Sprint(peers) {
		t.Errorf("nodes listing %v disagrees with join response %v", msg.Peers, peers)
	}
}

package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

// Worker adapts one pubsd daemon into a cluster shard: it serves the
// cluster wire protocol in front of the daemon's own Submit path, so a
// cell dispatched by the coordinator flows through exactly the admission
// control, journal, runner, and cache machinery a directly submitted
// campaign would. Its answer path is the two-tier cache: the node-local
// store first, a peer fetch by content address second, and only then a
// fresh execution.
type Worker struct {
	svc *service.Service
	hc  *http.Client

	mu         sync.Mutex
	peers      map[string]string // node ID -> base URL, self excluded
	peersEpoch uint64            // epoch of the newest applied membership snapshot
	replicate  bool              // push completed plans/results to the ring successor
	// hints maps a sampling-plan key to the node the coordinator designated
	// to compute it, refcounted across the concurrent sweep batches that
	// share the key. A hint for self doubles as the "expecting" signal the
	// plan endpoint's long-poll consults.
	hints map[string]*planHint
}

// planHint is a sweep batch's planner designation: the planner's node ID
// and the base URL the coordinator resolved it to.
type planHint struct {
	planner, url string
	refs         int
}

// NewWorker wraps a running daemon: it serves the cluster endpoints and
// installs the daemon's plan-exchange seams, so the sampled path answers
// plan misses from the fleet (replica cache, then peers) before paying a
// functional pass, and replicates every local pass to the ring successor.
func NewWorker(svc *service.Service) *Worker {
	wk := &Worker{
		svc:       svc,
		hc:        SharedClient(),
		peers:     make(map[string]string),
		replicate: true,
		hints:     make(map[string]*planHint),
	}
	svc.SetPlanExchange(wk.planFetch, wk.planPush)
	return wk
}

// DisableReplication turns off everything proactive and shared about the
// worker's sampling-plan handling: the plan-exchange seams are removed
// (every plan miss pays a local functional pass) and completed plans and
// results are no longer pushed to the ring successor. The benchmark's
// plan-sharing-off topology and A/B experiments use it; the serving
// endpoints stay up so peers can still pull.
func (wk *Worker) DisableReplication() {
	wk.svc.SetPlanExchange(nil, nil)
	wk.mu.Lock()
	wk.replicate = false
	wk.mu.Unlock()
}

// SetPeers applies a static member map (in-process topologies, tests). It
// is stamped with the current wall clock — the clock a coordinator draws
// its epochs from — so the asynchronous push of a membership change made
// before it can never overwrite it, while any later change still does.
// Coordinator traffic goes through ApplyPeers with the coordinator's epoch.
func (wk *Worker) SetPeers(peers map[string]string) {
	wk.ApplyPeers(peers, uint64(time.Now().UnixNano()))
}

// ApplyPeers applies a membership snapshot stamped with the coordinator's
// epoch, refusing to go backwards: the coordinator broadcasts every
// membership change asynchronously, so two rapid joins can deliver an older
// map after a newer one, and last-write-wins would strand this worker with
// a stale view — unable to resolve the very planner a sweep batch names.
// Epoch 0 is unversioned and always applies. The worker's own entry is
// dropped: fetching from yourself is tier 1, not tier 2. Reports whether
// the snapshot was applied.
func (wk *Worker) ApplyPeers(peers map[string]string, epoch uint64) bool {
	self := wk.svc.NodeID()
	next := make(map[string]string, len(peers))
	for node, url := range peers {
		if node != self && url != "" {
			next[node] = strings.TrimRight(url, "/")
		}
	}
	wk.mu.Lock()
	if epoch != 0 && epoch <= wk.peersEpoch {
		wk.mu.Unlock()
		return false
	}
	if epoch != 0 {
		wk.peersEpoch = epoch
	}
	wk.peers = next
	wk.mu.Unlock()
	wk.svc.ClusterCounters().SetPeers(len(next))
	return true
}

// peerList snapshots the peer URLs in deterministic (node ID) order.
func (wk *Worker) peerList() []string {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	nodes := make([]string, 0, len(wk.peers))
	for n := range wk.peers {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = wk.peers[n]
	}
	return urls
}

// successorURL returns the ring successor's base URL: the next node ID
// clockwise from self in sorted member order — the same successor that
// inherits this node's keys if it dies, which is exactly why completed
// plans and results replicate there.
func (wk *Worker) successorURL() (string, bool) {
	self := wk.svc.NodeID()
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if len(wk.peers) == 0 {
		return "", false
	}
	ids := make([]string, 0, len(wk.peers)+1)
	for n := range wk.peers {
		ids = append(ids, n)
	}
	ids = append(ids, self)
	sort.Strings(ids)
	for i, n := range ids {
		if n == self {
			succ := ids[(i+1)%len(ids)]
			if succ == self {
				return "", false
			}
			return wk.peers[succ], true
		}
	}
	return "", false
}

// addPlanHint registers a sweep batch's planner designation while the
// batch runs; dropPlanHint releases it.
func (wk *Worker) addPlanHint(req sweepRequest) {
	if req.PlanKey == "" || req.Planner == "" {
		return
	}
	wk.mu.Lock()
	if h, ok := wk.hints[req.PlanKey]; ok {
		h.refs++
	} else {
		wk.hints[req.PlanKey] = &planHint{planner: req.Planner, url: strings.TrimRight(req.PlannerURL, "/"), refs: 1}
	}
	wk.mu.Unlock()
}

func (wk *Worker) dropPlanHint(req sweepRequest) {
	if req.PlanKey == "" || req.Planner == "" {
		return
	}
	wk.mu.Lock()
	if h, ok := wk.hints[req.PlanKey]; ok {
		if h.refs--; h.refs <= 0 {
			delete(wk.hints, req.PlanKey)
		}
	}
	wk.mu.Unlock()
}

// planHintFor returns the planner designation for a plan key, if a sweep
// batch carrying one is in flight.
func (wk *Worker) planHintFor(key string) (planHint, bool) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	h, ok := wk.hints[key]
	if !ok {
		return planHint{}, false
	}
	return *h, true
}

// expectingPlan reports whether this node is the designated planner for
// key with the batch still in flight — the signal that makes the plan
// endpoint's ?wait=1 long-poll park instead of answering 404.
func (wk *Worker) expectingPlan(key string) bool {
	h, ok := wk.planHintFor(key)
	return ok && h.planner == wk.svc.NodeID()
}

// planFetch is the daemon's plan-fetch seam (tier 1 of the plan answer
// path; the replica cache is tier 0 and a local functional pass the
// fallback). When a sweep batch designated another node as planner, this
// node long-polls it at the URL the batch carried — the planner is
// mid-pass by construction, so waiting beats burning a redundant pass —
// retrying briefly to absorb the window where concurrent batches are still
// being delivered. Every node, the designated planner included, then ends
// with one cache-only sweep of the peers: an earlier sweep of the same
// workload may have designated a different planner, which already holds
// the plan.
func (wk *Worker) planFetch(ctx context.Context, key string) ([]byte, bool) {
	if h, ok := wk.planHintFor(key); ok && h.planner != wk.svc.NodeID() && h.url != "" {
		deadline := time.Now().Add(2 * time.Second)
		for {
			if data, ok := fetchPlan(ctx, wk.hc, h.url, key, true); ok {
				return data, true
			}
			// A prompt 404 means the planner is alive but not (yet)
			// expecting to plan: its batch may still be in flight to it.
			// Retry inside a short window, then fall back.
			if ctx.Err() != nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	for _, base := range wk.peerList() {
		if data, ok := fetchPlan(ctx, wk.hc, base, key, false); ok {
			return data, true
		}
	}
	return nil, false
}

// planPush is the daemon's plan-replication seam: fire-and-forget to the
// ring successor. The service already runs it off the planning goroutine.
func (wk *Worker) planPush(key string, data []byte) {
	wk.mu.Lock()
	replicate := wk.replicate
	wk.mu.Unlock()
	if !replicate {
		return
	}
	if base, ok := wk.successorURL(); ok {
		_ = pushPlan(context.Background(), wk.hc, base, key, data)
	}
}

// replicateResult proactively copies a cell this node executed to its ring
// successor, so losing this node loses zero completed work. Asynchronous
// and best-effort — the pull path (peer fetch by content address) remains
// the safety net.
func (wk *Worker) replicateResult(res service.CellResult) {
	wk.mu.Lock()
	replicate := wk.replicate
	wk.mu.Unlock()
	if !replicate || res.Key == "" {
		return
	}
	base, ok := wk.successorURL()
	if !ok {
		return
	}
	go func() {
		if pushResult(context.Background(), wk.hc, base, res) == nil {
			wk.svc.ClusterCounters().AddResultPush()
		}
	}()
}

// Handler serves the worker's cluster endpoints, falling through to next
// (the daemon's public API) for every other path.
func (wk *Worker) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/sweep", wk.handleSweep)
	mux.HandleFunc("GET /v1/cluster/result/{key}", wk.handleResult)
	mux.HandleFunc("POST /v1/cluster/result", wk.handleResultPush)
	mux.HandleFunc("GET /v1/cluster/plan/{key}", wk.handlePlanGet)
	mux.HandleFunc("POST /v1/cluster/plan/{key}", wk.handlePlanPut)
	mux.HandleFunc("POST /v1/cluster/peers", wk.handlePeers)
	if next != nil {
		mux.Handle("/", next)
	}
	return mux
}

// handleSweep is the only way a worker answers remote cells: a batch of
// them — one workload's machine sweep, or a single cell as a batch of one —
// answered as a stream of NDJSON sweepLines so settled cells reach the
// coordinator the moment they finish. Each cell goes through the two-tier
// cache first: this node's own store, then a peer fetch by content address.
// The remainder is merged into ONE submission through the daemon's own
// Submit path (admission control, journal, runner, cache), so a sweep
// shares a single sampling plan and each workload window replays across
// every machine while its trace is hot. The request's planner designation
// is registered first — before any tier check — because it is what the
// plan endpoint's long-poll and the plan-fetch seam consult to keep the
// fleet at exactly one functional pass per plan key.
func (wk *Worker) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Cells) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("cluster: sweep: no cells"))
		return
	}
	wk.addPlanHint(req)
	defer wk.dropPlanHint(req)

	var answered []sweepLine
	var pending []service.RemoteCell
	for _, rc := range req.Cells {
		if rc.Key == "" || len(rc.Spec.Machines) != 1 || len(rc.Spec.Workloads) != 1 {
			writeError(w, http.StatusBadRequest, errors.New("cluster: sweep: malformed cell"))
			return
		}
		// Tier 1: already resident here (this node's own earlier execution,
		// an adopted peer result, or a duplicate in a concurrent burst).
		if res, ok := wk.svc.Result(rc.Key); ok {
			answered = append(answered, sweepLine{Key: rc.Key, Result: res, Source: "cache"})
			continue
		}
		// Tier 2: a peer holds it — after a ring change (join, failover) the
		// old owner still has the result, and moving it is cheaper than
		// re-simulating. Adopt so this node answers tier 1 next time.
		hit := false
		for _, base := range wk.peerList() {
			if res, ok := fetchResult(r.Context(), wk.hc, base, rc.Key); ok {
				wk.svc.AdoptResult(res)
				wk.svc.ClusterCounters().AddPeerHit()
				answered = append(answered, sweepLine{Key: rc.Key, Result: res, Source: "peer"})
				hit = true
				break
			}
		}
		if !hit {
			pending = append(pending, rc)
		}
	}

	// Prefetch the sweep's plan before submitting: a non-planner node parks
	// HERE, on the handler goroutine, not inside a service worker slot — so
	// waiting for the planner can never starve this node's own planning (or
	// any other job) of execution capacity. By the time the merged job runs,
	// the plan sits in the replica cache and the runner's plan source
	// answers instantly.
	if len(pending) > 0 && req.PlanKey != "" && req.Planner != "" && req.Planner != wk.svc.NodeID() {
		wk.mu.Lock()
		share := wk.replicate
		wk.mu.Unlock()
		if share && !wk.svc.HasPlan(req.PlanKey) {
			if data, ok := wk.planFetch(r.Context(), req.PlanKey); ok {
				_ = wk.svc.AdoptPlan(req.PlanKey, data)
			}
		}
	}

	// Tier 3: merge the remainder into one multi-machine spec. Per-cell
	// specs from one batch differ only in their machine by construction;
	// anything else is a protocol bug worth refusing outright. Each spec
	// carries resolved windows, so this node derives the same content
	// addresses the coordinator sharded by.
	var job *service.Job
	keyByMachine := make(map[string]string, len(pending))
	if len(pending) > 0 {
		merged := pending[0].Spec
		for _, rc := range pending[1:] {
			s := rc.Spec
			if s.Workloads[0] != merged.Workloads[0] || s.Warmup != merged.Warmup ||
				s.Measure != merged.Measure || s.Windows != merged.Windows ||
				s.FastForward != merged.FastForward || s.WindowMajor != merged.WindowMajor ||
				s.LiveDecode != merged.LiveDecode {
				writeError(w, http.StatusBadRequest, errors.New("cluster: sweep: cells disagree on workload or windows"))
				return
			}
			merged.Machines = append(merged.Machines, s.Machines[0])
		}
		for _, rc := range pending {
			cfg, err := rc.Spec.Machines[0].Config()
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			keyByMachine[cfg.Name] = rc.Key
		}
		// Submit before committing to a 200: an admission refusal must reach
		// the coordinator as 429/503 with the daemon's Retry-After hint —
		// the steal/backoff signal — not as a broken stream.
		var err error
		job, err = wk.svc.Submit(merged)
		if err != nil {
			var ra *service.RetryAfterError
			if errors.As(err, &ra) {
				w.Header().Set("Retry-After", strconv.Itoa(int(ra.After.Round(time.Second).Seconds())))
			}
			switch {
			case errors.Is(err, service.ErrQueueFull), errors.Is(err, service.ErrRateLimited):
				writeError(w, http.StatusTooManyRequests, err)
			case errors.Is(err, service.ErrDraining):
				writeError(w, http.StatusServiceUnavailable, err)
			default:
				writeError(w, http.StatusBadRequest, err)
			}
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(ln sweepLine) {
		_ = enc.Encode(ln)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, ln := range answered {
		emit(ln)
	}
	if job == nil {
		return
	}

	// Stream the job's cell events as they land. Failures carry no content
	// key (there is no result to address), so they map back to the
	// coordinator's key through the machine name. The wait wakes on the
	// job's completion as well as on the poll tick, so the last cell — a
	// single cell's only one — leaves the moment the job finishes.
	reported := make(map[string]bool, len(pending))
	var executed []service.CellResult
	shed := "" // set when the job failed before running any cell
	from := 0
	for {
		evs, state := job.EventsSince(from)
		from += len(evs)
		for _, e := range evs {
			if e.Type == "failed" && e.Error != "" {
				shed = e.Error
			}
			if e.Type != "cell" {
				continue
			}
			if e.Error != "" {
				key := e.Key
				if key == "" {
					key = keyByMachine[e.Machine]
				}
				if key != "" && !reported[key] {
					reported[key] = true
					emit(sweepLine{Key: key, Source: "error", Error: e.Error})
				}
				continue
			}
			if _, want := keyByMachine[e.Machine]; !want || reported[e.Key] {
				continue
			}
			if res, ok := wk.svc.Result(e.Key); ok {
				reported[e.Key] = true
				executed = append(executed, res)
				emit(sweepLine{Key: e.Key, Result: res, Source: "executed"})
			}
		}
		if len(evs) > 0 {
			continue
		}
		if state == service.JobDone || state == service.JobFailed {
			break
		}
		select {
		case <-r.Context().Done():
			// The coordinator hung up; the job runs on and lands in the
			// cache, so the re-dispatch is a tier-1 hit.
			return
		case <-job.Done():
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Anything still unreported either missed the cache (settle it from the
	// job's own results), belongs to a job that was shed before it ran, or
	// resolved to a different content address than the coordinator sharded
	// by — a protocol bug to surface loudly.
	byKey := make(map[string]service.CellResult)
	for _, res := range job.Status().Results {
		byKey[res.Key] = res
	}
	for _, rc := range pending {
		if reported[rc.Key] {
			continue
		}
		if res, ok := byKey[rc.Key]; ok {
			executed = append(executed, res)
			emit(sweepLine{Key: rc.Key, Result: res, Source: "executed"})
			continue
		}
		msg := shed
		if msg == "" {
			msg = fmt.Sprintf("cluster: key mismatch: coordinator asked for %s, worker computed a different address", rc.Key)
		}
		emit(sweepLine{Key: rc.Key, Source: "error", Error: msg})
	}
	for _, res := range executed {
		wk.replicateResult(res)
	}
}

// handleResult is the cache-only peer-fetch endpoint: it answers from this
// node's finished-result store and never triggers work, which is what
// keeps peer fetches cheap and recursion-free.
func (wk *Worker) handleResult(w http.ResponseWriter, r *http.Request) {
	res, ok := wk.svc.Result(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("cluster: no result under that key"))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleResultPush accepts a proactively replicated finished cell — the
// push half of result replication. Cache-only admission: the result is
// adopted, never executed, and a malformed payload is refused.
func (wk *Worker) handleResultPush(w http.ResponseWriter, r *http.Request) {
	var res service.CellResult
	if err := decodeBody(w, r, &res); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if res.Key == "" {
		writeError(w, http.StatusBadRequest, errors.New("cluster: result push: empty key"))
		return
	}
	wk.svc.AdoptResult(res)
	w.WriteHeader(http.StatusOK)
}

// planWaitBound caps the plan endpoint's ?wait=1 long-poll. The client's
// planWaitTimeout is sized above it, so a parked fetch is ended by this
// server bound (404: plan still cooking or pass failed), not a client
// timeout misread as a dead peer.
const planWaitBound = 30 * time.Second

// handlePlanGet serves a serialized sampling plan by plan key, cache-only:
// the replica cache and the runners' window stores are consulted, work is
// never triggered. With ?wait=1 the handler parks while this node is the
// designated planner with the batch in flight — the window where "miss"
// really means "seconds from now", and waiting is what saves the caller a
// redundant functional pass.
func (wk *Worker) handlePlanGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	wait := r.URL.Query().Get("wait") == "1"
	deadline := time.Now().Add(planWaitBound)
	for {
		if data, ok := wk.svc.PlanData(key); ok {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(data)
			return
		}
		if !wait || !wk.expectingPlan(key) || time.Now().After(deadline) {
			writeError(w, http.StatusNotFound, errors.New("cluster: no plan under that key"))
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// handlePlanPut accepts a proactively replicated plan. The envelope's
// content hash gates admission (AdoptPlan re-verifies it), so a corrupt or
// truncated push is a 400, never a resident replica.
func (wk *Worker) handlePlanPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if wk.svc.HasPlan(key) {
		// Resident in some tier already (this node planned it, or adopted
		// it via prefetch before the push arrived) — don't pay the decode.
		w.WriteHeader(http.StatusOK)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPlanWireBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := wk.svc.AdoptPlan(key, data); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// handlePeers applies a coordinator membership push. A push whose epoch is
// not newer than the last applied snapshot is acknowledged but ignored —
// out-of-order delivery, not an error.
func (wk *Worker) handlePeers(w http.ResponseWriter, r *http.Request) {
	var msg peersMsg
	if err := decodeBody(w, r, &msg); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wk.ApplyPeers(msg.Peers, msg.Epoch)
	writeJSON(w, http.StatusOK, peersMsg{Peers: msg.Peers, Epoch: msg.Epoch})
}

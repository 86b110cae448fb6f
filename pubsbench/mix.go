package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/workload"
)

// The cluster-mix job catalogue. Every workload gets two window-major
// sampled sweeps over disjoint machine groups (so the second reuses the
// first one's plan through plan exchange instead of simulating the same
// cells) and two contiguous single-cell jobs, base and PUBS. Half as many
// resubmissions of earlier jobs ride along. The seed orders the jobs and
// picks what is resubmitted; the set of fresh jobs never changes, so every
// seed does the same simulation work.
const (
	mixWindows     = 3
	mixWarmup      = 1_000
	mixMeasure     = 2_000
	mixFastForward = 300_000

	mixSingleWarmup  = 2_000
	mixSingleMeasure = 8_000

	mixWorkers = 3 // pubsd workers behind the coordinator
	mixClients = 2 // closed-loop clients
)

var (
	mixSweepA = []service.MachineSpec{{Machine: "base"}, {Machine: "pubs"}, {Machine: "age"}, {Machine: "pubs+age"}}
	mixSweepB = []service.MachineSpec{
		{Machine: "pubs", PriorityEntries: 16},
		{Machine: "pubs", ConfCounterBits: 4},
		{Machine: "pubs", NoStall: true},
		{Machine: "pubs", NoSwitch: true},
		{Machine: "pubs", Flexible: true},
	}
)

// mixJob is one entry of the job sequence.
type mixJob struct {
	Kind string // sweep | single | resubmit
	Spec service.CampaignSpec
	Of   int // resubmit: index of the job resubmitted
}

// mixSequence is the seeded job sequence: the fresh catalogue in a seeded
// order with one resubmission for every two fresh jobs, each repeating a
// job that comes earlier in the sequence.
func mixSequence(seed int64) []mixJob {
	var fresh []mixJob
	for _, wl := range workload.Names() {
		for _, ms := range [][]service.MachineSpec{mixSweepA, mixSweepB} {
			fresh = append(fresh, mixJob{Kind: "sweep", Spec: service.CampaignSpec{
				Machines: ms, Workloads: []string{wl},
				Warmup: mixWarmup, Measure: mixMeasure,
				Windows: mixWindows, FastForward: mixFastForward, WindowMajor: true,
			}})
		}
		for _, m := range []string{"base", "pubs"} {
			fresh = append(fresh, mixJob{Kind: "single", Spec: service.CampaignSpec{
				Machines: []service.MachineSpec{{Machine: m}}, Workloads: []string{wl},
				Warmup: mixSingleWarmup, Measure: mixSingleMeasure,
			}})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })

	resubs := len(fresh) / 2
	isResub := make([]bool, len(fresh)+resubs)
	for i := len(fresh); i < len(isResub); i++ {
		isResub[i] = true
	}
	// The first job is always fresh: there is nothing to resubmit yet.
	rng.Shuffle(len(isResub)-1, func(i, j int) { isResub[i+1], isResub[j+1] = isResub[j+1], isResub[i+1] })

	seq := make([]mixJob, 0, len(isResub))
	var freshIdx []int
	next := 0
	for _, r := range isResub {
		if !r {
			seq = append(seq, fresh[next])
			freshIdx = append(freshIdx, len(seq)-1)
			next++
			continue
		}
		of := freshIdx[rng.Intn(len(freshIdx))]
		seq = append(seq, mixJob{Kind: "resubmit", Spec: seq[of].Spec, Of: of})
	}
	return seq
}

// specOptions resolves a spec's windows the way the daemon does for specs
// that set them all.
func specOptions(spec service.CampaignSpec) experiments.Options {
	o := experiments.Options{Warmup: spec.Warmup, Measure: spec.Measure}
	if spec.Windows > 0 {
		o.SampleWindows, o.SampleFastForward = spec.Windows, spec.FastForward
	}
	return o
}

// specKeys is the content key of every cell of spec, as the daemon
// derives it.
func specKeys(spec service.CampaignSpec) ([]string, error) {
	cells, err := spec.Cells(0)
	if err != nil {
		return nil, err
	}
	o := specOptions(spec)
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key(o)
	}
	return keys, nil
}

// mixNode is one pubsd worker on a loopback listener.
type mixNode struct {
	svc *service.Service
	wk  *cluster.Worker
	srv *http.Server
	url string
}

// fleet is a coordinator daemon plus its workers, all in this process.
type fleet struct {
	coord   *cluster.Coordinator
	csvc    *service.Service
	workers []*mixNode
	tr      atomic.Pointer[tracer]
	serveWG sync.WaitGroup
}

func bootFleet() (*fleet, error) {
	f := &fleet{}
	peers := map[string]string{}
	for i := 0; i < mixWorkers; i++ {
		svc, err := service.New(service.Config{
			NodeID:        fmt.Sprintf("w%d", i+1),
			Workers:       1,
			QueueDepth:    64,
			MaxActiveJobs: 16,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		wk := cluster.NewWorker(svc)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown(svc)
			f.stop()
			return nil, err
		}
		n := &mixNode{svc: svc, wk: wk, url: "http://" + ln.Addr().String()}
		n.srv = &http.Server{Handler: f.timedRoutes(wk.Handler(svc.Handler()))}
		f.serveWG.Add(1)
		go func() {
			defer f.serveWG.Done()
			_ = n.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
		}()
		f.workers = append(f.workers, n)
		peers[svc.NodeID()] = n.url
	}
	f.coord = cluster.NewCoordinator()
	csvc, err := service.New(service.Config{
		NodeID:        "coord",
		Workers:       8,
		QueueDepth:    64,
		MaxActiveJobs: 8,
		Remote:        f.remote,
		RemoteSweep:   f.remoteSweep,
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.csvc = csvc
	f.coord.BindCounters(csvc.ClusterCounters())
	for _, n := range f.workers {
		f.coord.AddNode(n.svc.NodeID(), n.url)
		n.wk.SetPeers(peers)
	}
	return f, nil
}

// remote and remoteSweep are the dispatch seams the coordinator daemon
// calls; they time each call into the cluster coordinator.
func (f *fleet) remote(ctx context.Context, rc service.RemoteCell) (service.CellResult, bool, error) {
	tr := f.tr.Load()
	t0 := time.Now()
	res, handled, err := f.coord.Remote(ctx, rc)
	tr.record(span{Name: "dispatch", Layer: "cluster", Key: rc.Key, Job: tr.job(rc.Key)}, t0, time.Now())
	return res, handled, err
}

func (f *fleet) remoteSweep(ctx context.Context, planKey string, cells []service.RemoteCell) (map[string]service.CellResult, map[string]error, bool) {
	tr := f.tr.Load()
	t0 := time.Now()
	res, errs, handled := f.coord.RemoteSweep(ctx, planKey, cells)
	job := ""
	if len(cells) > 0 {
		job = tr.job(cells[0].Key)
	}
	tr.record(span{Name: "dispatch_sweep", Layer: "cluster", Key: planKey, Job: job}, t0, time.Now())
	return res, errs, handled
}

// timedRoutes wraps a worker's handler, timing every cluster route.
func (f *fleet) timedRoutes(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := f.tr.Load()
		route, key := routeOf(r)
		if tr == nil || route == "" {
			h.ServeHTTP(w, r)
			return
		}
		if route == "execute" || route == "sweep" {
			key = peekKey(r)
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.record(span{Name: "route_" + route, Layer: "cluster", Key: key, Job: tr.job(key)}, t0, time.Now())
	})
}

// routeOf names a cluster route (execute, sweep, plan, result, peers) and
// the key in its path, if any; other paths give "".
func routeOf(r *http.Request) (route, key string) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/cluster/")
	if !ok {
		return "", ""
	}
	route, key, _ = strings.Cut(rest, "/")
	return route, key
}

// peekKey reads the first cell key of an execute or sweep body and puts
// the body back for the handler.
func peekKey(r *http.Request) string {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return ""
	}
	var msg struct {
		Key   string `json:"key"`
		Cells []struct {
			Key string `json:"key"`
		} `json:"cells"`
	}
	if json.Unmarshal(body, &msg) != nil {
		return ""
	}
	if msg.Key == "" && len(msg.Cells) > 0 {
		return msg.Cells[0].Key
	}
	return msg.Key
}

func (f *fleet) services() []*service.Service {
	var out []*service.Service
	if f.csvc != nil {
		out = append(out, f.csvc)
	}
	for _, n := range f.workers {
		out = append(out, n.svc)
	}
	return out
}

// stop drains every daemon and closes every listener, then waits for the
// serving goroutines to return.
func (f *fleet) stop() {
	if f.csvc != nil {
		shutdown(f.csvc)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, n := range f.workers {
		shutdown(n.svc)
		_ = n.srv.Shutdown(ctx) // a listener that fails to close cannot leak work
	}
	f.serveWG.Wait()
}

// clusterMix drives a coordinator and three workers with two closed-loop
// clients through the seeded job sequence.
type clusterMix struct {
	env *env
	f   *fleet // booted by setup for the first repetition
}

func (w *clusterMix) setup() error {
	f, err := bootFleet()
	w.f = f
	return err
}

func (w *clusterMix) rep(obs *observer) (repResult, error) {
	f := w.f
	w.f = nil
	if f == nil {
		var err error
		if f, err = bootFleet(); err != nil {
			return repResult{}, err
		}
	}
	defer f.stop()
	tr := obs.tracer()
	f.tr.Store(tr)

	seq := mixSequence(w.env.seed)
	keys := make([][]string, len(seq))
	planKeys := map[string]bool{}
	for i, j := range seq {
		k, err := specKeys(j.Spec)
		if err != nil {
			return repResult{}, err
		}
		keys[i] = k
		if j.Kind == "sweep" {
			pk, err := specOptions(j.Spec).PlanKey(j.Spec.Workloads[0])
			if err != nil {
				return repResult{}, err
			}
			planKeys[pk] = true
		}
	}

	t := &tally{}
	set := newCellSet()
	var mu sync.Mutex
	var jobMS, waitMS []float64
	var nextJob atomic.Int64
	client := func() {
		for {
			i := int(nextJob.Add(1) - 1)
			if i >= len(seq) {
				return
			}
			label := fmt.Sprintf("q%03d", i)
			tr.claim(label, keys[i])
			t0 := time.Now()
			job, err := f.csvc.Submit(seq[i].Spec)
			t1 := time.Now()
			tr.record(span{Name: "submit", Layer: "service", Job: label}, t0, t1)
			if err != nil {
				t.add(len(keys[i]))
				t.fail(len(keys[i]), fmt.Errorf("job %s (%s): submit: %w", label, seq[i].Kind, err))
				continue
			}
			<-job.Done()
			t2 := time.Now()
			tr.record(span{Name: "job", Layer: "client", Job: label}, t0, t2)
			st := checkJob(job, w.env.check, t, set)
			mu.Lock()
			jobMS = append(jobMS, msBetween(t0, t2))
			if st.StartedAt != nil {
				waitMS = append(waitMS, msBetween(st.SubmittedAt, *st.StartedAt))
			}
			mu.Unlock()
		}
	}

	var res repResult
	if err := obs.begin(); err != nil {
		return res, err
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client()
		}()
	}
	wg.Wait()
	res.Wall = time.Since(t0).Seconds()
	obs.end()

	res.finish(t, set)
	res.JobMS, res.QueueWaitMS = jobMS, waitMS
	res.Counters = serviceCounters(f.services()...)
	wk := make([]*service.Service, 0, len(f.workers))
	for _, n := range f.workers {
		wk = append(wk, n.svc)
	}
	for k, v := range serviceCounters(wk...) {
		res.Counters["workers."+k] = v
	}
	res.Counters["cluster.plan_keys"] = float64(len(planKeys))
	res.PlanInsts = mixWindows * (mixFastForward + mixWarmup + mixMeasure)
	return res, nil
}

func (w *clusterMix) close() {
	if w.f != nil {
		w.f.stop()
	}
}

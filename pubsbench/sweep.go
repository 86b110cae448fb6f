package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// Window geometry of the sampled-sweep workload: 4 windows of 2K warm-up +
// 5K measured instructions, each behind a 5M-instruction functional
// fast-forward, so planning outweighs detailed replay by far.
const (
	sweepWindows     = 4
	sweepWarmup      = 2_000
	sweepMeasure     = 5_000
	sweepFastForward = 5_000_000
)

// sampledSweep submits one window-major sampled campaign over the Fig. 8
// grid (every workload on the base and PUBS machines) to an in-process
// pubsd node with one simulation slot per CPU. The seed orders the
// workloads in the spec.
type sampledSweep struct {
	env *env
	svc *service.Service // booted by setup for the first repetition
}

func (w *sampledSweep) setup() error {
	svc, err := w.boot()
	w.svc = svc
	return err
}

func (w *sampledSweep) boot() (*service.Service, error) {
	return service.New(service.Config{
		NodeID:        "sweep",
		Workers:       w.env.procs,
		QueueDepth:    4,
		MaxActiveJobs: 1,
	})
}

// sweepSpec is the campaign for a seed: the Fig. 8 grid, workloads in a
// seeded order.
func sweepSpec(seed int64) service.CampaignSpec {
	names := workload.Names()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return service.CampaignSpec{
		Machines:    []service.MachineSpec{{Machine: "base"}, {Machine: "pubs"}},
		Workloads:   names,
		Warmup:      sweepWarmup,
		Measure:     sweepMeasure,
		Windows:     sweepWindows,
		FastForward: sweepFastForward,
		WindowMajor: true,
	}
}

func (w *sampledSweep) rep(obs *observer) (repResult, error) {
	svc := w.svc
	w.svc = nil
	if svc == nil {
		var err error
		if svc, err = w.boot(); err != nil {
			return repResult{}, err
		}
	}
	defer shutdown(svc)

	spec := sweepSpec(w.env.seed)
	var res repResult
	if err := obs.begin(); err != nil {
		return res, err
	}
	t0 := time.Now()
	job, err := svc.Submit(spec)
	if err != nil {
		obs.end()
		return res, fmt.Errorf("sampled-sweep: submit: %w", err)
	}
	obs.tracer().record(span{Name: "submit", Layer: "service", Job: job.ID()}, t0, time.Now())
	<-job.Done()
	t1 := time.Now()
	res.Wall = t1.Sub(t0).Seconds()
	obs.tracer().record(span{Name: "job", Layer: "client", Job: job.ID()}, t0, t1)
	obs.end()

	t := &tally{}
	set := newCellSet()
	st := checkJob(job, w.env.check, t, set)
	res.finish(t, set)
	// A cell's latency is the time from Submit until its result landed.
	evs, _ := job.EventsSince(0)
	for _, ev := range evs {
		if ev.Type == "cell" {
			res.JobMS = append(res.JobMS, msBetween(st.SubmittedAt, ev.Time))
		}
	}
	if st.StartedAt != nil {
		res.QueueWaitMS = []float64{msBetween(st.SubmittedAt, *st.StartedAt)}
	}
	res.Counters = serviceCounters(svc)
	res.PlanInsts = sweepWindows * (sweepFastForward + sweepWarmup + sweepMeasure)
	return res, nil
}

func (w *sampledSweep) close() {
	if w.svc != nil {
		shutdown(w.svc)
	}
}

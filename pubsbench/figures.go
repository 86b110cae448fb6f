package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/workload"
)

// paperFigures regenerates Fig. 8, Fig. 10 and Fig. 12 with an in-process
// experiments.Runner at QuickOptions, one simulation per CPU. The seed does
// not enter: the campaign is the same every time.
type paperFigures struct {
	env    *env
	runner *experiments.Runner // booted by setup for the first repetition
}

func (w *paperFigures) setup() error {
	w.runner = w.newRunner()
	return nil
}

func (w *paperFigures) newRunner() *experiments.Runner {
	o := experiments.QuickOptions()
	o.Parallelism = w.env.procs
	return experiments.NewRunner(o)
}

func (w *paperFigures) rep(obs *observer) (repResult, error) {
	r := w.runner
	w.runner = nil
	if r == nil {
		r = w.newRunner()
	}
	// The admission seam brackets every detailed simulation: its wall
	// time is this workload's per-job latency.
	var mu sync.Mutex
	var simMS []float64
	r.WithAdmit(func() (func(error), error) {
		t0 := time.Now()
		return func(error) {
			t1 := time.Now()
			mu.Lock()
			simMS = append(simMS, msBetween(t0, t1))
			mu.Unlock()
			obs.tracer().record(span{Name: "sim", Layer: "experiments"}, t0, t1)
		}, nil
	})

	var res repResult
	if err := obs.begin(); err != nil {
		return res, err
	}
	t0 := time.Now()
	fig := func(name string, f func() error) error {
		s := time.Now()
		err := f()
		obs.tracer().record(span{Name: "figure", Layer: "experiments", Key: name}, s, time.Now())
		return err
	}
	var f8 experiments.Fig8Result
	err := fig("fig8", func() (err error) { f8, err = experiments.Fig8(r); return err })
	if err == nil {
		err = fig("fig10", func() error { _, err := experiments.Fig10(r); return err })
	}
	if err == nil {
		err = fig("fig12", func() error { _, err := experiments.Fig12(r); return err })
	}
	res.Wall = time.Since(t0).Seconds()
	obs.end()

	t := &tally{}
	if err != nil {
		t.fail(1, fmt.Errorf("figures: %w", err))
	}
	before := r.Stats()
	cells, err := figureCells(r)
	if err != nil {
		return res, err
	}
	if after := r.Stats(); after.Simulated != before.Simulated {
		t.fail(int(after.Simulated-before.Simulated), fmt.Errorf(
			"figures: %d cells the benchmark expects were not simulated by Fig8/Fig10/Fig12; update figureCells",
			after.Simulated-before.Simulated))
	}
	set := newCellSet()
	o := r.Options()
	for _, c := range cells {
		cr := service.NewCellResult(c.cell, o, c.res)
		t.add(1)
		if err := w.env.check.check(cr); err != nil {
			t.fail(1, err)
		}
		set.add(cr)
	}
	if gm := modelled(set.list())["dbp_gm_speedup_pct"]; gm != f8.GMDiffPct {
		t.fail(1, fmt.Errorf("figures: Fig. 8 D-BP GM %+.6f%% but the cells give %+.6f%%", f8.GMDiffPct, gm))
	}
	res.finish(t, set)
	mu.Lock()
	res.JobMS = simMS
	mu.Unlock()
	res.Counters = map[string]float64{
		"experiments.sims":      float64(before.Simulated),
		"experiments.memo_hits": float64(before.MemoHits),
	}
	return res, nil
}

func (w *paperFigures) close() {}

type figureCell struct {
	cell experiments.Cell
	res  pipeline.Result
}

// figureCells reads back, from the runner's memo, every cell Fig. 8,
// Fig. 10 and Fig. 12 simulate: base and PUBS over the suite, the
// priority-entry sweep over D-BP, and PUBS without the mode switch.
func figureCells(r *experiments.Runner) ([]figureCell, error) {
	cls, err := r.Classify()
	if err != nil {
		return nil, err
	}
	all := workload.Names()
	sort.Strings(all)
	var cfgs []pipeline.Config
	var wls [][]string
	add := func(cfg pipeline.Config, names []string) {
		cfgs = append(cfgs, cfg)
		wls = append(wls, names)
	}
	add(pipeline.BaseConfig(), all)
	add(pipeline.PUBSConfig(), all)
	for _, entries := range []int{2, 4, 6, 8, 10, 12} {
		for _, stall := range []bool{true, false} {
			cfg := pipeline.PUBSConfig()
			cfg.Name = fmt.Sprintf("pubs-p%d-stall%v", entries, stall)
			cfg.PUBS.PriorityEntries = entries
			cfg.PUBS.StallDispatch = stall
			add(cfg, cls.DBP)
		}
	}
	off := pipeline.PUBSConfig()
	off.Name = "pubs-noswitch"
	off.PUBS.ModeSwitch = false
	add(off, all)

	var out []figureCell
	for i, cfg := range cfgs {
		for _, wl := range wls[i] {
			res, err := r.Run(cfg, wl)
			if err != nil {
				return nil, err
			}
			out = append(out, figureCell{experiments.Cell{Config: cfg, Workload: wl}, res})
		}
	}
	return out, nil
}

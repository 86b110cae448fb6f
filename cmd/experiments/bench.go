package main

// Benchmark gates: -bench 2|4|5|6|8 runs one gate's case table through
// internal/abgate, which times both sides, checks bit-identity, writes the
// report (-bench-out) and applies the gate's floor and its tolerance
// against the committed baseline (-bench-baseline). What stays here is
// each gate's cases: the simulations it times.

import (
	"context"
	"fmt"

	pubsim "repro"
	"repro/internal/abgate"
)

// benchTolerance is the largest accepted fractional drop below a committed
// baseline (CI machines jitter; BENCH_2's allocation gate is exact up to
// benchAllocSlack).
const benchTolerance = 0.20

// benchAllocSlack absorbs harness-level allocation noise (result structs,
// goroutine bookkeeping) that is not per-cycle work. The per-cycle
// zero-allocation invariant itself is enforced exactly by the pipeline
// package's regression tests.
const benchAllocSlack = 512

// benchGate returns the gate -bench names; warmup and measure size
// BENCH_2's simulation windows.
func benchGate(id string, warmup, measure uint64) (abgate.Gate, error) {
	switch id {
	case "2":
		return simsGate(warmup, measure), nil
	case "4":
		return samplingGate(), nil
	case "5":
		return traceGate(), nil
	case "6":
		return skipGate()
	case "8":
		return burstGate()
	}
	return abgate.Gate{}, fmt.Errorf("unknown -bench %q (gates: 2 4 5 6 8)", id)
}

func speedupGroup(floor float64) []abgate.Group {
	return []abgate.Group{{Key: "geomean_speedup", Floor: floor, Tolerance: benchTolerance}}
}

// simsGate (BENCH_2) times single simulations alone: the two headline
// machines on the branchy and memory-bound ends of the suite, plus the
// select variants whose hot paths were rewritten (age matrix, distributed
// queues). It gates sims/sec and allocations per simulation.
func simsGate(warmup, measure uint64) abgate.Gate {
	age := pubsim.PUBSConfig()
	age.Name = "pubs+age"
	age.AgeMatrix = true
	dist := pubsim.PUBSConfig()
	dist.Name = "pubs-distributed"
	dist.DistributedIQ = true
	g := abgate.Gate{
		Name:       "BENCH_2",
		Groups:     []abgate.Group{{Key: "geomean_sims_per_sec", Tolerance: benchTolerance}},
		AllocSlack: benchAllocSlack,
	}
	for _, c := range []struct {
		name     string
		cfg      pubsim.Config
		workload string
	}{
		{"base/chess", pubsim.BaseConfig(), "chess"},
		{"pubs/chess", pubsim.PUBSConfig(), "chess"},
		{"pubs/goplay", pubsim.PUBSConfig(), "goplay"},
		{"pubs+age/parser", age, "parser"},
		{"pubs-distributed/fft", dist, "fft"},
	} {
		g.Cases = append(g.Cases, abgate.Case{Name: c.name, B: func() (abgate.Outcome, error) {
			res, err := pubsim.Run(c.cfg, c.workload, warmup, measure)
			return abgate.Outcome{Result: res, Counters: map[string]float64{
				"cycles": float64(res.Cycles), "committed": float64(res.Committed),
			}}, err
		}})
	}
	return g
}

// sweepMachines is the paper's typical five-machine comparison width;
// BENCH_4 and BENCH_5 sweep it over one workload per class: branchy
// (chess), pointer-chasing (parser), and the game-playing outlier that
// stresses PUBS hardest (goplay).
var (
	sweepMachines  = []string{"base", "pubs", "age", "pubs+age", "pubs-large"}
	sweepWorkloads = []string{"chess", "parser", "goplay"}
)

func machineConfigs(machines []string) ([]pubsim.Config, error) {
	cfgs := make([]pubsim.Config, 0, len(machines))
	for _, m := range machines {
		cfg, err := pubsim.MachineConfig(m)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// runCells runs every machine on workload through r, cell by cell.
func runCells(r *pubsim.Runner, workload string) ([]pubsim.Result, error) {
	cfgs, err := machineConfigs(sweepMachines)
	if err != nil {
		return nil, err
	}
	out := make([]pubsim.Result, 0, len(cfgs))
	for _, cfg := range cfgs {
		res, err := r.RunContext(context.Background(), cfg, workload)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", cfg.Name, workload, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func snapshotCounters(s pubsim.SamplingStoreStats) map[string]float64 {
	return map[string]float64{"snapshot_plans": float64(s.Plans), "snapshot_hits": float64(s.Hits)}
}

// BENCH_4 sampling geometry: chosen so the functional fast-forward
// (Windows × FastForward instructions) and the detailed work (Windows ×
// (Warmup+Measure)) are the same order of magnitude — the regime where
// paying the fast-forward once per workload instead of once per machine is
// the dominant win.
const (
	samplingWindows     = 6
	samplingFastForward = 3_000_000
	samplingWarmup      = 10_000
	samplingMeasure     = 25_000
)

// samplingGate (BENCH_4) times each multi-machine sampled sweep as the
// serial-unshared reference (every machine pays its own functional
// fast-forward) against the shared-snapshot path (one fast-forward per
// workload through the window store). Floor 1.3x: below it snapshot
// sharing has regressed into overhead.
func samplingGate() abgate.Gate {
	g := abgate.Gate{Name: "BENCH_4", Groups: speedupGroup(1.3)}
	for _, wl := range sweepWorkloads {
		g.Cases = append(g.Cases, abgate.Case{
			Name: wl + "-sweep",
			A: func() (abgate.Outcome, error) {
				res, err := runSerialCampaign(wl)
				return abgate.Outcome{Result: res}, err
			},
			B: func() (abgate.Outcome, error) {
				// A fresh runner per run: memoization would otherwise turn
				// every run after the first into cache hits.
				r := pubsim.NewRunner(pubsim.Options{
					Warmup: samplingWarmup, Measure: samplingMeasure,
					SampleWindows: samplingWindows, SampleFastForward: samplingFastForward,
					ParallelWindows: -1, // GOMAXPROCS
				})
				res, err := runCells(r, wl)
				return abgate.Outcome{Result: res, Counters: snapshotCounters(r.SnapshotStats())}, err
			},
		})
	}
	return g
}

// runSerialCampaign is the unshared reference: every (machine, workload)
// cell plans its own windows and runs them serially — the cost model of
// sampling before shared checkpoints.
func runSerialCampaign(workload string) ([]pubsim.Result, error) {
	cfgs, err := machineConfigs(sweepMachines)
	if err != nil {
		return nil, err
	}
	plan := pubsim.SamplingPlan{
		Windows: samplingWindows, FastForward: samplingFastForward,
		Warmup: samplingWarmup, Measure: samplingMeasure,
	}
	out := make([]pubsim.Result, 0, len(cfgs))
	for _, cfg := range cfgs {
		sres, err := pubsim.RunSampled(cfg, workload, plan)
		if err != nil {
			return nil, fmt.Errorf("serial %s/%s: %w", cfg.Name, workload, err)
		}
		out = append(out, sres.Merged())
	}
	return out, nil
}

// BENCH_5 sweep geometry: many short windows, so the per-window fixed
// costs the replay path eliminates (pipeline construction, live
// functional re-decode) are a large share of each cell — the regime
// batched replay is built for.
const (
	traceWindows     = 24
	traceFastForward = 50_000
	traceWarmup      = 300
	traceMeasure     = 150
)

// traceGate (BENCH_5) times each five-machine sampled sweep with live
// decode (every window re-decodes through a functional emulator into a
// fresh pipeline, cell by cell) against trace replay (the window store's
// predecoded traces replayed window-major through pooled simulators).
// Both share the window store geometry, so the fast-forward is paid once
// per workload either way: the ratio isolates predecoded replay, pooling
// and window-major scheduling, not snapshot sharing (BENCH_4 gates that).
// Floor 1.25x.
func traceGate() abgate.Gate {
	// The two runners differ only in result-neutral scheduling fields, so
	// both resolve identical content keys.
	opts := func(live bool) pubsim.Options {
		return pubsim.Options{
			Warmup: traceWarmup, Measure: traceMeasure,
			SampleWindows: traceWindows, SampleFastForward: traceFastForward,
			ParallelWindows: -1, // GOMAXPROCS
			LiveDecode:      live,
			WindowMajor:     !live,
		}
	}
	g := abgate.Gate{Name: "BENCH_5", Groups: speedupGroup(1.25)}
	for _, wl := range sweepWorkloads {
		g.Cases = append(g.Cases, abgate.Case{
			Name: wl + "-sweep",
			A: func() (abgate.Outcome, error) {
				res, err := runCells(pubsim.NewRunner(opts(true)), wl)
				return abgate.Outcome{Result: res}, err
			},
			B: func() (abgate.Outcome, error) {
				cfgs, err := machineConfigs(sweepMachines)
				if err != nil {
					return abgate.Outcome{}, err
				}
				r := pubsim.NewRunner(opts(false))
				res, err := r.RunSweepContext(context.Background(), cfgs, wl)
				return abgate.Outcome{Result: res, Counters: snapshotCounters(r.SnapshotStats())}, err
			},
		})
	}
	return g
}

// Skip and burst geometry: one contiguous window per run, long enough that
// the measured span is dominated by steady-state miss behaviour rather
// than cold caches.
const (
	cellWarmup  = 20_000
	cellMeasure = 80_000
)

// cell is one contiguous simulation: a machine on a named workload or on
// a custom program. No Runner, no memoization: the gates time the bare
// pipeline.
type cell struct {
	name string
	cfg  pubsim.Config
	wl   string
	prog *pubsim.Program
}

func (c cell) run() (pubsim.Result, error) {
	if c.prog != nil {
		return pubsim.RunProgram(c.cfg, c.prog, cellWarmup, cellMeasure)
	}
	return pubsim.Run(c.cfg, c.wl, cellWarmup, cellMeasure)
}

// memboundCells crosses the memory-bound workloads (pointer chases, sparse
// gathers, cache-hostile strides) with the paper's two anchor machines:
// the workloads whose cycles are dominated by provably-null miss shadows,
// the regime idle skipping is built for. Compute-bound workloads sit near
// 1.0x by construction and are gated for overhead by BENCH_2 instead.
func memboundCells() ([]cell, error) {
	var cells []cell
	for _, wl := range []string{"sparse", "treewalk", "quantsim", "bfs"} {
		for _, m := range []string{"base", "pubs"} {
			cfg, err := pubsim.MachineConfig(m)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{name: wl + "-" + m, cfg: cfg, wl: wl})
		}
	}
	return cells, nil
}

// abCase times c with ref applied to its config (A, the reference mode)
// against c as is (B). B's counters are its skip telemetry: the burst
// spans and cycles that make a speedup attributable.
func abCase(c cell, group string, ref func(*pubsim.Config)) abgate.Case {
	refCell := c
	ref(&refCell.cfg)
	return abgate.Case{
		Name: c.name, Group: group,
		A: func() (abgate.Outcome, error) {
			res, err := refCell.run()
			return abgate.Outcome{Result: res}, err
		},
		B: func() (abgate.Outcome, error) {
			before := pubsim.GlobalSkipTelemetry()
			res, err := c.run()
			after := pubsim.GlobalSkipTelemetry()
			return abgate.Outcome{Result: res, Counters: map[string]float64{
				"fetch_burst_spans":   float64(after.FetchBurstSpans - before.FetchBurstSpans),
				"fetch_burst_cycles":  float64(after.FetchBurstCycles - before.FetchBurstCycles),
				"commit_burst_spans":  float64(after.CommitBurstSpans - before.CommitBurstSpans),
				"commit_burst_cycles": float64(after.CommitBurstCycles - before.CommitBurstCycles),
			}}, err
		},
	}
}

// skipGate (BENCH_6) times the memory-bound cells in poll mode
// (Config.NoIdleSkip, the cycle loop that walks every stage every cycle)
// against event-driven idle-cycle skipping (DESIGN.md §14). Floor 2.0x:
// below it the skip has stopped earning its complexity.
func skipGate() (abgate.Gate, error) {
	cells, err := memboundCells()
	if err != nil {
		return abgate.Gate{}, err
	}
	g := abgate.Gate{Name: "BENCH_6", Groups: speedupGroup(2.0)}
	for _, c := range cells {
		g.Cases = append(g.Cases, abCase(c, "", func(cfg *pubsim.Config) { cfg.NoIdleSkip = true }))
	}
	return g, nil
}

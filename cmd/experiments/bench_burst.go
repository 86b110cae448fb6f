package main

// BENCH_8 measures phase-2 burst integration (DESIGN.md §14 phase 2)
// against phase-1 skipping (Config.NoBurstSkip: null-span skipping only,
// no burst classes) on two groups:
//
//   - burst: purpose-built fetch-bound and commit-bound programs whose
//     cycles are dominated by the two quasi-null shapes — a backend wedged
//     on data misses while fetch drains I-lines (fetch-drain), and a
//     starved front end while a completed ROB run retires (commit-run).
//     Floor 1.3x on the group geomean, and every case must fire a burst:
//     below that the detectors have stopped earning their per-cycle checks.
//
//   - membound: the BENCH_6 memory-bound cells. Those spans are mostly
//     fully null, so phase 2 has little to integrate; the group's floor of
//     1 - benchTolerance holds the burst checks to costing nothing where
//     they do not fire.

import (
	"fmt"

	pubsim "repro"
	"repro/internal/abgate"
)

// benchChaseData emits a single-cycle permutation (Sattolo) over all words
// and returns its base address. A chase over raw scrambled *values* settles
// into a ~√N orbit that fits in cache; the permutation cycle visits every
// word, so each link is a genuine memory-latency miss.
func benchChaseData(b *pubsim.Builder, words int) uint64 {
	vals := make([]uint64, words)
	for i := range vals {
		vals[i] = uint64(i)
	}
	x := uint64(0x1905E6E5D)
	for i := words - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i)) // j < i: Sattolo keeps one big cycle
		vals[i], vals[j] = vals[j], vals[i]
	}
	return b.Words(vals...)
}

// fetchBoundBench wedges the backend on a data-dependent load chase deep
// into memory while a large fan-out block *dependent on the chase* packs
// the issue queue with non-ready uops: dispatch stalls on the full queue,
// and fetch alone drains I-lines — the fetch-drain shape. The dependence
// is what makes the shape expensive to poll: every phase-1 cycle of the
// span re-evaluates a zero-grant select over a full queue, exactly the
// work the burst proves frozen.
func fetchBoundBench() *pubsim.Program {
	b := pubsim.NewProgram("bench-fetch-bound")
	const words = 1 << 21 // 16 MB permutation: links miss the 2 MB L2
	base := benchChaseData(b, words)

	ctr, dbase, p, addr := pubsim.R(2), pubsim.R(3), pubsim.R(4), pubsim.R(5)
	alu := []pubsim.Reg{pubsim.R(6), pubsim.R(7), pubsim.R(8), pubsim.R(9)}
	b.Li(ctr, 1<<40)
	b.Li(dbase, int64(base))
	b.Li(p, 1)
	for i, r := range alu {
		b.Li(r, int64(3*i+1))
	}
	b.Label("loop")
	// One serialized full-latency chase link per iteration: the loaded
	// word is the next index in the permutation cycle.
	b.Shli(addr, p, 3)
	b.Add(addr, addr, dbase)
	b.Ld(p, addr, 0)
	// Fan-out block: every op waits on the chase value, so the issue
	// queue fills with non-ready work and stays full for the whole miss.
	for i := 0; i < 400; i++ {
		r := alu[i%len(alu)]
		b.Add(r, r, p)
	}
	b.Addi(ctr, ctr, -1)
	b.Bne(ctr, pubsim.RZero, "loop")
	b.Halt()
	return b.MustBuild()
}

// commitBoundBench builds the commit-run regime: a 400-instruction
// *independent* run completes behind a chase miss at the ROB head, and
// when the miss returns the run retires in one long commit-only stretch —
// the issue queue is packed full with a younger fan-out block parked on a
// *second* chase link that is still in flight, so dispatch is pinned on
// the one structural stall commit cannot relieve (only issue grants free
// queue slots, and a parked queue grants nothing) and the full fetch
// queue behind it keeps fetch quiescent. Every cycle of the run is a
// commit-only poll that phase 1 pays a full zero-grant select over the
// parked queue for; phase 2 retires the run as a single commit-run burst.
func commitBoundBench() *pubsim.Program {
	b := pubsim.NewProgram("bench-commit-bound")
	const words = 1 << 21
	base := benchChaseData(b, words)

	ctr, dbase, p, addr := pubsim.R(2), pubsim.R(3), pubsim.R(4), pubsim.R(5)
	alu := []pubsim.Reg{pubsim.R(6), pubsim.R(7), pubsim.R(8), pubsim.R(9)}
	b.Li(ctr, 1<<40)
	b.Li(dbase, int64(base))
	b.Li(p, 1)
	for i, r := range alu {
		b.Li(r, int64(i+1))
	}
	b.Label("loop")
	// Head blocker: chase link 1 holds retirement while the run completes.
	b.Shli(addr, p, 3)
	b.Add(addr, addr, dbase)
	b.Ld(p, addr, 0)
	// The run: independent Adds, complete long before the link returns.
	for i := 0; i < 1600; i++ {
		r := alu[i%len(alu)]
		b.Add(r, r, alu[(i+1)%len(alu)])
	}
	// Chase link 2 starts when link 1 lands; the fan-out parks on it and
	// overfills the 256-entry issue queue, keeping dispatch queue-full-
	// stalled (and fetch queue-full behind it) while the run retires
	// under link 2's miss.
	b.Shli(addr, p, 3)
	b.Add(addr, addr, dbase)
	b.Ld(p, addr, 0)
	for i := 0; i < 530; i++ {
		r := alu[i%len(alu)]
		b.Add(r, r, p)
	}
	b.Addi(ctr, ctr, -1)
	b.Bne(ctr, pubsim.RZero, "loop")
	b.Halt()
	return b.MustBuild()
}

// burstGate builds BENCH_8. Shaped configs are part of the benchmark's
// definition: the burst group exists to measure the regime the detectors
// target, not an average workload.
func burstGate() (abgate.Gate, error) {
	g := abgate.Gate{
		Name: "BENCH_8",
		Groups: []abgate.Group{
			{Name: "burst", Key: "geomean_burst_speedup", Floor: 1.3, Tolerance: benchTolerance},
			{Name: "membound", Key: "geomean_membound_speedup", Floor: 1 - benchTolerance},
		},
		Checks: []func(*abgate.Report) []string{burstsFired},
	}
	phase1 := func(cfg *pubsim.Config) { cfg.NoBurstSkip = true }

	tinyL1I := pubsim.CacheConfig{Name: "L1I", Sets: 1, Ways: 2, LineBytes: 64, HitLat: 0, MSHRs: 2}
	fetchProg, commitProg := fetchBoundBench(), commitBoundBench()
	for _, m := range []string{"base", "pubs"} {
		cfg, err := pubsim.MachineConfig(m)
		if err != nil {
			return abgate.Gate{}, err
		}
		// Fetch-bound: the chase misses to memory (its image outsizes the
		// L2) and wedges the backend for 1000 cycles per link while the
		// fan-out packs a 256-entry issue queue with non-ready work; a
		// tiny L1I makes the runahead stage line by line, and each fresh
		// line's staging cycles land before its head matures — fetch-only
		// polls that phase 1 pays a full zero-grant select over the
		// parked queue for. The window (ROB, register file) is sized so
		// the queue is what finally caps the runahead, four ALUs shorten
		// the active drain when the chase returns.
		fc := cfg
		fc.Name = cfg.Name + "-fetchbound"
		fc.MemLatency = 1_000
		fc.L1I = tinyL1I
		fc.FrontEndDepth = 20
		fc.ROBSize = 448
		fc.IQSize = 384
		fc.PhysIntRegs = 512
		fc.NumIntALU = 4
		fc.Prefetch = false
		g.Cases = append(g.Cases, abCase(cell{name: "fetchbound-" + m, cfg: fc, prog: fetchProg}, "burst", phase1))

		// Commit-bound: the loop stays L1I-resident (fast supply, so the
		// 1600-wide run is fully completed and ROB-deep when the head
		// link lands) while the data chase misses to memory. The window
		// is sized so the parked fan-out is what binds: the 270-entry
		// block overfills the 256-entry issue queue before the ROB or the
		// register file run out, pinning dispatch on the queue-full stall
		// for the whole run.
		cc := cfg
		cc.Name = cfg.Name + "-commitbound"
		cc.MemLatency = 1_000
		cc.ROBSize = 2560
		cc.IQSize = 512
		cc.LSQSize = 128
		cc.PhysIntRegs = 2688
		cc.NumIntALU = 4
		cc.Prefetch = false
		g.Cases = append(g.Cases, abCase(cell{name: "commitbound-" + m, cfg: cc, prog: commitProg}, "burst", phase1))
	}

	cells, err := memboundCells()
	if err != nil {
		return abgate.Gate{}, err
	}
	for _, c := range cells {
		g.Cases = append(g.Cases, abCase(c, "membound", phase1))
	}
	return g, nil
}

// burstsFired fails every burst case whose phase-2 run fired no burst:
// its shape no longer exercises the detectors, so its speedup is not
// theirs.
func burstsFired(r *abgate.Report) []string {
	var fails []string
	for _, e := range r.Entries {
		if e.Group == "burst" && (e.B == nil || e.B.Counters["fetch_burst_spans"]+e.B.Counters["commit_burst_spans"] == 0) {
			fails = append(fails, fmt.Sprintf("%s: no burst ever fired — the shape no longer exercises the detectors", e.Name))
		}
	}
	return fails
}

package pipeline

// Cycle-cost microbenchmarks for the per-cycle hot path. One op is one
// simulated cycle (or one stage call), driven by a pre-recorded looping
// instruction window so the emulator is out of the picture. Run with
//
//	go test -bench 'Cycle|Stage' -benchmem ./internal/pipeline
//
// ns/op is the steady-state cost of a cycle; allocs/op must be 0 (the
// invariant TestSteadyStateZeroAllocsPerCycle enforces). BenchmarkStage
// attributes the cycle cost to the individual pipeline stages via custom
// <stage>-ns/cycle metrics.

import (
	"testing"
	"time"
)

func benchSim(b *testing.B, cfg Config) *Sim {
	b.Helper()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// chess is the paper's most branch-heavy program — worst case for the
	// IQ select and the commit-side profile path.
	m, err := recordStreamRaw("chess", 4096)
	if err != nil {
		b.Fatal(err)
	}
	s.stream = m
	for i := 0; i < 50_000; i++ {
		stepCycle(s) // reach steady state before timing
	}
	return s
}

// BenchmarkCycle measures one full simulated cycle for the main machine
// variants. The golden-equivalence tests pin the architectural results, so
// this number can only improve by making the same work cheaper.
func BenchmarkCycle(b *testing.B) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"base", BaseConfig()},
		{"pubs", PUBSConfig()},
		{"pubs-age", func() Config { c := PUBSConfig(); c.AgeMatrix = true; return c }()},
		{"pubs-distributed", func() Config { c := PUBSConfig(); c.DistributedIQ = true; return c }()},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			s := benchSim(b, tc.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stepCycle(s)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// BenchmarkStage runs full cycles but attributes the time to each stage,
// reported as <stage>-ns/cycle metrics. Stages must run in loop order —
// benchmarking one in isolation would starve or wedge it — so the split is
// measured inside a live cycle loop.
func BenchmarkStage(b *testing.B) {
	s := benchSim(b, PUBSConfig())
	var commitNs, issueNs, drainNs, dispatchNs, fetchNs time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		s.commit()
		t1 := time.Now()
		s.issue()
		t2 := time.Now()
		s.drainStores()
		t3 := time.Now()
		s.dispatch()
		s.decodeWrongPath()
		t4 := time.Now()
		s.fetch()
		t5 := time.Now()
		s.now++
		commitNs += t1.Sub(t0)
		issueNs += t2.Sub(t1)
		drainNs += t3.Sub(t2)
		dispatchNs += t4.Sub(t3)
		fetchNs += t5.Sub(t4)
	}
	b.StopTimer()
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N) }
	b.ReportMetric(per(commitNs), "commit-ns/cycle")
	b.ReportMetric(per(issueNs), "issue-ns/cycle")
	b.ReportMetric(per(drainNs), "drain-ns/cycle")
	b.ReportMetric(per(dispatchNs), "dispatch-ns/cycle")
	b.ReportMetric(per(fetchNs), "fetch-ns/cycle")
}

// BenchmarkBranchProfileGet measures the flat profile table's lookup/insert
// path (replaced a pointer-valued map on the commit stage).
func BenchmarkBranchProfileGet(b *testing.B) {
	p := newBranchProfile()
	pcs := make([]uint64, 512)
	x := uint64(0x243F6A8885A308D3)
	for i := range pcs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pcs[i] = (x % 8192) * 4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs := p.get(pcs[i&511])
		bs.Executed++
	}
}

// BenchmarkStoreBufferFillDrain measures one store-buffer fill/drain round
// through the D-cache (the ring replaced a head-slicing drain that leaked
// capacity).
func BenchmarkStoreBufferFillDrain(b *testing.B) {
	s, err := New(BaseConfig())
	if err != nil {
		b.Fatal(err)
	}
	n := len(s.storeBuf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s.sbLen < n {
			s.storeBuf[(s.sbHead+s.sbLen)%n] = uint64(s.sbLen) * 64
			s.sbLen++
		}
		for s.sbLen > 0 {
			s.drainStores()
			s.now++
		}
	}
}

// BenchmarkNextWake contrasts the event-heap wakeup index against the
// pre-heap threshold rescan it replaced. One op of heap/scan is one
// nextWake query on a live steady-state machine (treewalk: in-flight
// misses, busy units, and queued fetches keep the threshold population
// realistic). The heap's cost is the lazy stale-drain at the top; the
// scan's is a walk over every uop, function-unit slot, and port — the gap
// is the per-skip-attempt saving.
//
// One op of push/push-undeduped is one cycle's insertions on the pubs
// machine: FetchWidth equal now+FrontEndDepth maturity thresholds, as
// fetch pushes them, plus IssueWidth completions of which most share a
// latency, as schedule pushes them. push-undeduped replays the same
// pattern into the index without its dedupe table (the test oracle).
func BenchmarkNextWake(b *testing.B) {
	setup := func(b *testing.B) *Sim {
		s, err := New(PUBSConfig())
		if err != nil {
			b.Fatal(err)
		}
		m, err := recordStreamRaw("treewalk", 4096)
		if err != nil {
			b.Fatal(err)
		}
		s.stream = m
		for i := 0; i < 50_000; i++ {
			stepCycle(s)
		}
		return s
	}
	b.Run("heap", func(b *testing.B) {
		s := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += s.nextWake()
			if i&63 == 63 {
				stepCycle(s) // refresh the threshold population
			}
		}
		benchSink = sink
	})
	b.Run("scan", func(b *testing.B) {
		s := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += s.nextWakeScan()
			if i&63 == 63 {
				stepCycle(s)
			}
		}
		benchSink = sink
	})
	cfg := PUBSConfig()
	lat := [8]int64{1, 1, 3, 1, 1, 4, 1, 20}
	// wakes fills buf with cycle now's thresholds.
	wakes := func(buf []int64, now int64) []int64 {
		buf = buf[:0]
		for n := 0; n < cfg.FetchWidth; n++ {
			buf = append(buf, now+cfg.FrontEndDepth)
		}
		for n := 0; n < cfg.IssueWidth; n++ {
			buf = append(buf, now+lat[(int(now)+n)&7])
		}
		return buf
	}
	buf := make([]int64, 0, cfg.FetchWidth+cfg.IssueWidth)
	b.Run("push", func(b *testing.B) {
		var h wakeHeap
		h.init(4*cfg.ROBSize + 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := int64(i)
			for _, v := range wakes(buf, now) {
				h.push(v, now)
			}
		}
		benchSink = h.next(int64(b.N))
	})
	b.Run("push-undeduped", func(b *testing.B) {
		h := refWakeHeap{a: make([]int64, 0, 4*cfg.ROBSize+64)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := int64(i)
			for _, v := range wakes(buf, now) {
				h.push(v, now)
			}
		}
		benchSink = h.next(int64(b.N))
	})
}

// benchSink defeats dead-code elimination of the benchmarked queries.
var benchSink int64

package pipeline

import (
	"errors"
	"testing"

	"repro/internal/simerr"
)

// TestGoldenEquivalenceChecks: all 14 golden variants with the invariant
// sweep on — which audits every queued entry's ready bit against opReady
// and every waiter list — must pass the sweep and still hit their golden
// fingerprints (the sweep is result-neutral).
func TestGoldenEquivalenceChecks(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			cfg := gc.cfg
			cfg.Checks = true
			res := runBench(t, cfg, gc.workload, goldenWarmup, goldenMeasure)
			want := goldenTable[gc.name]
			if fp := goldenFingerprint(res); res.Cycles != want.cycles || fp != want.fingerprint {
				t.Errorf("%s: with checks cycles=%d fingerprint=0x%x, want cycles=%d fingerprint=0x%x",
					gc.name, res.Cycles, fp, want.cycles, want.fingerprint)
			}
		})
	}
}

// TestWakeupMatchesPredicate: polled cycle by cycle, the IQ ready bits must
// equal the readiness predicate they replaced at the point Select reads
// them — after the drain at the top of issue() — for every golden machine
// variant (every queue kind and select variant). The test runs that drain
// itself at each cycle boundary; the next issue() would run it first
// anyway, so the simulation is unchanged.
func TestWakeupMatchesPredicate(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			s, err := New(gc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.stream = recordStream(t, gc.workload, 4096)
			for i := 0; i < 8000; i++ {
				stepCycle(s)
				s.drainReady()
				if err := s.checkWakeup(); err != nil {
					t.Fatalf("cycle %d: %v", s.now, err)
				}
			}
			if s.st.Issued == 0 {
				t.Fatal("nothing issued")
			}
		})
	}
}

// TestWakeupAuditCatchesCorruption: the audit must reject a ready bit set
// ahead of the predicate and a waiter link that reaches a recycled handle.
func TestWakeupAuditCatchesCorruption(t *testing.T) {
	// probe steps a base machine until some live uop satisfies want and
	// returns its handle.
	probe := func(t *testing.T, want func(*uop) bool) (*Sim, int) {
		s, err := New(BaseConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.stream = recordStream(t, "parser", 4096)
		for i := 0; i < 20_000; i++ {
			stepCycle(s)
			for h := range s.uops {
				if u := &s.uops[h]; u.live && want(u) {
					return s, h
				}
			}
		}
		t.Fatal("no uop in the wanted state within 20K cycles")
		return nil, 0
	}
	t.Run("early-ready", func(t *testing.T) {
		s, h := probe(t, func(u *uop) bool { return !u.issued && u.waiting > 0 })
		s.q.MarkReady(h)
		if err := s.checkWakeup(); !errors.Is(err, simerr.ErrInvariant) {
			t.Fatalf("premature ready bit on handle %d not caught: %v", h, err)
		}
	})
	t.Run("recycled-waiter", func(t *testing.T) {
		s, h := probe(t, func(u *uop) bool { return u.waiters != 0 })
		// The consumer's handle now holds an instruction that reads
		// nothing from this producer.
		c := &s.uops[int(s.uops[h].waiters-1)/3]
		c.srcs = [2]src{{h: -1}, {h: -1}}
		c.fwd = src{h: -1}
		if err := s.checkWakeup(); !errors.Is(err, simerr.ErrInvariant) {
			t.Fatalf("waiter list reaching a recycled handle not caught: %v", err)
		}
	})
}

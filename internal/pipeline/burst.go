package pipeline

// Quasi-null burst integration (DESIGN.md §14, phase 2).
//
// The phase-1 skip (idleskip.go) jumps spans where *nothing* mutates. The
// two burst classes below extend the induction to spans where exactly one
// stage mutates and every other stage is provably frozen until the event
// heap's top threshold T. The active stage is simulated cycle-by-cycle
// with its real mutations — bursting changes what the loop *doesn't* do:
// the frozen stages are not entered, the zero-grant select is not
// re-evaluated, and the per-cycle integrable ticks are replayed exactly
// as skipCycles replays them.
//
// Freeze arguments shared by both classes, all anchored on T = wake.next
// (the heap holds every future threshold, pushed at creation; see
// wakeheap.go):
//
//   - issue: a zero-grant Select is pure and deterministic in the IQ
//     content, the ready mask, and the free function units. The IQ only
//     changes via dispatch (frozen) and grants (none). The ready mask
//     only changes when issue() drains readyAt cycles, which are uop
//     completion thresholds (≥ T). Units only free at fuBusy thresholds
//     (≥ T). So Select would return zero grants every cycle of the span
//     — it is skipped, which is the main saving.
//
//   - drainStores: acts only when sbLen > 0 and a D-port threshold has
//     passed; ports free at heap thresholds (≥ T), and sbLen grows only
//     at commit (fetch burst: frozen; commit burst: guarded to retire no
//     stores while a port is or becomes free).
//
//   - dispatch: acts only on a mature, decodable fetch-queue head. Heads
//     mature at staging thresholds (≥ T). A mature head that is stalled
//     structurally stays stalled: the ROB, LSQ, and register files only
//     gain space at commit (fetch burst: frozen). The commit burst —
//     where commit *does* free those resources — runs the real dispatch
//     stage every cycle instead of arguing it frozen: a stalled dispatch
//     re-records its exact stall tick, and the first cycle where it acts
//     ends the run after completing that cycle in full (see
//     commitRunBurst).
//
//   - fetch: blocked states are either sticky until another stage acts
//     (blockedOnSeq clears at issue; streamDone is terminal) or bounded
//     by heap thresholds (fetchResumeAt, lineReadyAt, queue-full until
//     dispatch drains).
//
//   - decodeWrongPath: walks only while armed (wrongPathIdx ≥ 0, PUBS
//     tables present, fetch blocked on the branch). An armed walk acts
//     every cycle, so it can never be frozen context — both bursts
//     require it disarmed and bail out the moment fetch arms it.
//
//   - commit: the head unblocks at completion thresholds (≥ T); a head
//     blocked on a full store buffer stays blocked because the drain is
//     frozen (fetch burst) — and the commit burst is the case where it
//     is not frozen.
//
// Like the null skip, bursting advances lastCommitAt across cycles that
// retire nothing (a known wakeup is proof of progress, not a hang) and
// does not count burst cycles as polled loop iterations; the watchdog,
// invariant-sweep, and context-poll cadences behave exactly as they do
// across skipped spans. Both classes are disabled by Config.NoBurstSkip
// (phase-1-only mode, used by the BENCH_8 comparison) and by everything
// that disables the null skip.

// wrongPathArmed reports whether the wrong-path decode walk would mutate
// the PUBS tables next cycle — armed walks act unconditionally, so no
// burst may span them.
func (s *Sim) wrongPathArmed() bool {
	return s.wrongPathIdx >= 0 && s.pubs != nil && s.blockedOnSeq != noSeq
}

// fetchDrainBurst extends a cycle whose only activity was fetch (s.act ==
// actFetch) into a span that simulates nothing but the fetch stage: the
// backend is provably frozen until the heap's top threshold, so each
// burst cycle stages real instructions (predictor, BTB, RAS, I-cache, and
// queue mutations are exact) while the frozen stages contribute only
// their integrable ticks — the dispatch-stall counter and weighted-
// dispatch draw recorded by this cycle's stall site, and the occupancy
// sample (the IQ is untouched by fetch, so the batched AddN sees the
// constant occupancy a polled run would have sampled k times).
//
// Span-bounding events, checked per cycle: a foreign threshold at the
// heap top (completion, port, unit, redirect, line fill, or the maturity
// of an entry this very burst staged — all pushed as created), the walk
// arming, or fetch itself going quiescent (queue full, line miss,
// redirect, stream end). A cycle in which fetch mutates nothing is
// rewound — fetch's own null cycle is exactly that, a state-identical
// no-op — and left for the polled loop, which may skip or terminate on
// it with its usual checks.
func (s *Sim) fetchDrainBurst() {
	k := int64(0)
	for {
		if s.wrongPathArmed() {
			break
		}
		if t := s.wake.next(s.now); t <= s.now+1 {
			break // a threshold fires next cycle: poll it normally
		}
		s.now++
		s.act = 0
		s.fetch()
		if s.act == 0 {
			// Fetch mutated nothing, so the rewind restores the machine
			// byte-for-byte; the polled loop owns this cycle.
			s.now--
			break
		}
		k++
		if s.stallCtr != nil {
			*s.stallCtr++
		}
		if s.stallRand {
			s.rng = rngStep(s.rng)
		}
	}
	if k > 0 {
		if s.occHist != nil {
			s.occHist.AddN(s.q.Occupancy(), uint64(k))
		}
		s.lastCommitAt += k
		s.fetchBurstSpans++
		s.fetchBurstCycles += uint64(k)
	}
}

// commitRunReady reports whether next cycle's commit will retire at least
// one uop and no store within the commit width. Stores are excluded
// conservatively: a committed store feeds the store buffer, which can arm
// drainStores in the cycle that follows — the polled loop handles those.
func (s *Sim) commitRunReady() bool {
	for i := 0; i < s.cfg.CommitWidth; i++ {
		h, ok := s.rob.At(i)
		if !ok {
			return i > 0
		}
		u := &s.uops[h]
		if !u.scheduled || u.completeCycle > s.now+1 {
			return i > 0
		}
		if u.di.Inst.IsStore() {
			return false
		}
	}
	return true
}

// commitRunBurst extends a cycle whose only activity was commit (s.act ==
// actCommit) into a span that simulates the commit and dispatch stages
// and nothing else: a contiguous run of completed uops at the ROB head
// retires at commit width while issue, the store drain, the wrong-path
// walk, and fetch are provably frozen. Each burst cycle calls the real
// commit (branch stats, PUBS confidence updates, register release,
// mode-switch hooks — all exact) followed by the same afterCommit
// bookkeeping a polled cycle runs — the warm-up boundary, the progress
// hook at its exact committed count, and the termination checks — and
// then the real dispatch stage.
//
// Dispatch is run rather than argued frozen because commit is exactly the
// stage that relieves its structural stalls (ROB slots, LSQ slots,
// physical registers). Running it costs a few compares on the stalled
// path and keeps the span bit-exact for free: a dispatch that stays
// stalled walks the identical hazard checks a polled cycle would —
// bumping the same stall counter and burning the same weighted-dispatch
// draw — while mutating nothing else. The common stable case is a head
// blocked on a full issue queue: only issue grants free IQ slots and
// issue is frozen, so the stall repeats for the whole run no matter how
// many resources commit releases. The first cycle where dispatch does
// act (an entry leaves the fetch queue, or a newly mature head takes its
// one-time decode mark), the span can no longer claim fetch is frozen —
// the queue drained — so the burst completes that cycle in full
// (wrong-path walk and fetch run for real; issue and the store drain
// remain covered by the loop-top guards for this cycle) and ends.
//
// Returns true when the run terminated inside the burst (target reached,
// halt retired, or a finished machine drained empty) — at the same cycle,
// with the same state, as the polled loop's afterCommit break.
func (s *Sim) commitRunBurst(rs *runState) (done bool) {
	k := int64(0)
	for {
		if s.wrongPathArmed() {
			break
		}
		if t := s.wake.next(s.now); t <= s.now+1 {
			break // a threshold fires next cycle: poll it normally
		}
		// A free D-port next cycle plus buffered stores would activate
		// drainStores (ports busy beyond now+1 are heap-bounded above;
		// this catches ports that are already free while stores wait).
		if s.sbLen > 0 && s.anyDportFreeBy(s.now+1) {
			break
		}
		if !s.commitRunReady() {
			break
		}
		s.now++
		k++
		s.act = 0
		s.stallCtr = nil
		s.stallRand = false
		s.commit()
		if s.afterCommit(rs) {
			done = true
			break
		}
		s.dispatch()
		dispatched := s.act&actDispatch != 0
		if dispatched {
			// Dispatch consumed fetch-queue entries (or decoded a fresh
			// head): fetch may act this very cycle, so finish it as a
			// full polled cycle before ending the run.
			s.decodeWrongPath()
			s.fetch()
		}
		// The occupancy sample lands after the termination checks, as in
		// the polled loop (a terminating cycle never samples).
		if s.occHist != nil {
			s.occHist.Add(s.q.Occupancy())
		}
		if dispatched {
			break
		}
	}
	if k > 0 {
		s.commitBurstSpans++
		s.commitBurstCycles += uint64(k)
	}
	return done
}

// anyDportFreeBy reports whether some D-cache port is free at cycle t.
func (s *Sim) anyDportFreeBy(t int64) bool {
	for _, d := range s.dports {
		if d <= t {
			return true
		}
	}
	return false
}

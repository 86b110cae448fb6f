package pipeline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/simerr"
)

// Wakeup-driven operand readiness (DESIGN.md §8, §14).
//
// A queued uop becomes a select candidate once every value it reads
// exists. Rather than re-derive that each cycle by chasing producers, the
// pipeline tracks it as events:
//
//   - At dispatch (dependOn) each source — both register slots plus the
//     forwarding store of a load — is either resolved (architected, or a
//     scheduled producer whose completion cycle folds into readyAt) or
//     linked onto the unscheduled producer's waiter list, bumping the
//     uop's waiting count.
//   - When a producer is scheduled (wakeWaiters) its completion cycle is
//     known: each linked waiter folds it into readyAt and drops its count.
//     A forwarding store's completion is its issue cycle + 1, exactly when
//     the load may first select.
//   - A uop whose count reaches zero enters the ready set, a min-heap on
//     readyAt, which drainReady empties into the issue queue's ready mask
//     at the top of issue() once readyAt ≤ now.
//
// Idle-skip contract: every readyAt is the maximum of completion cycles,
// each pushed into the wakeHeap when it was assigned, so the ready mask
// changes only at a wakeHeap threshold or on the cycle right after an
// acting dispatch — never inside a skipped or bursted span. The drain
// therefore does not mark s.act: marking bits that a zero-grant Select
// then ignores leaves every later cycle of the span identical, just as
// the predicate it replaces evaluated identically until the next
// threshold.

// Waiter links live inside the consumer uops: link id 3h+slot+1 names
// consumer h's source slot (0, 1: registers; fwdSlot: forwarding store),
// whose successor in the producer's list is uops[h].next[slot]. Zero ends
// a list, so a zeroed uop holds no links.
const fwdSlot = 2

// dependOn resolves consumer h's source slot against producer sr.
func (s *Sim) dependOn(h, slot int, sr src) {
	if sr.h < 0 {
		return
	}
	p := &s.uops[sr.h]
	if !p.live || p.di.Seq != sr.seq {
		return // committed: the value is architected
	}
	u := &s.uops[h]
	if p.scheduled {
		u.readyAt = max(u.readyAt, p.completeCycle)
		return
	}
	u.next[slot] = p.waiters
	p.waiters = int32(3*h + slot + 1)
	u.waiting++
}

// trackReadiness links a freshly dispatched queued uop onto its producers,
// or hands it to the ready set when none is outstanding.
func (s *Sim) trackReadiness(h int) {
	u := &s.uops[h]
	for i := 0; i < u.nsrc; i++ {
		s.dependOn(h, i, u.srcs[i])
	}
	if u.hasFwd {
		s.dependOn(h, fwdSlot, u.fwd)
	}
	if u.waiting == 0 {
		s.ready.push(u.readyAt, h)
	}
}

// wakeWaiters runs when producer p's completion cycle becomes known.
func (s *Sim) wakeWaiters(p *uop) {
	for l := p.waiters; l != 0; {
		h, slot := int(l-1)/3, int(l-1)%3
		c := &s.uops[h]
		l = c.next[slot]
		c.next[slot] = 0
		c.readyAt = max(c.readyAt, p.completeCycle)
		if c.waiting--; c.waiting == 0 {
			s.ready.push(c.readyAt, h)
		}
	}
	p.waiters = 0
}

// drainReady marks every uop whose operands exist by now ready in the IQ.
func (s *Sim) drainReady() {
	for len(s.ready.a) > 0 && s.ready.a[0].at <= s.now {
		s.q.MarkReady(int(s.ready.pop()))
	}
}

// readyEntry is one ready-set member: a uop and the cycle its last
// operand arrives.
type readyEntry struct {
	at int64
	h  int32
}

// readyHeap is the time-ordered ready set: a binary min-heap on at. Each
// uop enters at most once per dispatch, so a ROB-sized backing array never
// reallocates.
type readyHeap struct {
	a []readyEntry
}

func (r *readyHeap) push(at int64, h int) {
	r.a = append(r.a, readyEntry{at, int32(h)})
	i := len(r.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if r.a[p].at <= r.a[i].at {
			break
		}
		r.a[p], r.a[i] = r.a[i], r.a[p]
		i = p
	}
}

// pop removes the earliest entry and returns its uop handle.
func (r *readyHeap) pop() int32 {
	h := r.a[0].h
	n := len(r.a) - 1
	r.a[0] = r.a[n]
	r.a = r.a[:n]
	for i := 0; ; {
		l, rt := 2*i+1, 2*i+2
		m := i
		if l < n && r.a[l].at < r.a[m].at {
			m = l
		}
		if rt < n && r.a[rt].at < r.a[m].at {
			m = rt
		}
		if m == i {
			return h
		}
		r.a[i], r.a[m] = r.a[m], r.a[i]
		i = m
	}
}

// ---------- audit (Config.Checks) and test oracle ----------

// valueReady reports whether the value identified by sr is available at the
// start of the current cycle. A dead or recycled producer means the value
// is architected (the producer committed).
func (s *Sim) valueReady(sr src) bool {
	if sr.h < 0 {
		return true
	}
	u := &s.uops[sr.h]
	if !u.live || u.di.Seq != sr.seq {
		return true
	}
	return u.scheduled && u.completeCycle <= s.now
}

// opReady is the readiness predicate the wakeup machinery replaces: all
// source values available and any forwarding store already executed. It
// is kept as the audit's and the tests' ground truth.
func (s *Sim) opReady(h int) bool {
	u := &s.uops[h]
	for i := 0; i < u.nsrc; i++ {
		if !s.valueReady(u.srcs[i]) {
			return false
		}
	}
	if u.hasFwd {
		f := &s.uops[u.fwd.h]
		if f.live && f.di.Seq == u.fwd.seq && !f.issued {
			return false // forwarding source must have executed
		}
	}
	return true
}

// checkWakeup audits the wakeup state against opReady at the current
// cycle: every queued uop is ready in the IQ (or due in the ready set by
// now) exactly when the predicate says so, every waiter link names a live
// consumer whose source slot still reads the producer that lists it, and
// every waiting count equals the consumer's outstanding links.
func (s *Sim) checkWakeup() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: wakeup: %s", simerr.ErrInvariant, fmt.Sprintf(format, args...))
	}
	due := make([]bool, len(s.uops))
	for _, e := range s.ready.a {
		c := &s.uops[e.h]
		if !c.live || c.issued || c.waiting != 0 {
			return bad("ready set holds handle %d that is not a waiting-free queued uop", e.h)
		}
		due[e.h] = e.at <= s.now
	}
	links := make([]int, len(s.uops))
	for ph := range s.uops {
		p := &s.uops[ph]
		if p.waiters != 0 && (!p.live || p.scheduled) {
			return bad("handle %d (live %v, scheduled %v) still lists waiters", ph, p.live, p.scheduled)
		}
		for l, n := p.waiters, 0; l != 0; n++ {
			if n == 3*len(s.uops) {
				return bad("waiter list of handle %d does not terminate", ph)
			}
			h, slot := int(l-1)/3, int(l-1)%3
			c := &s.uops[h]
			sr := c.fwd
			if slot < fwdSlot {
				sr = c.srcs[slot]
			}
			if !c.live || c.issued || slot >= c.nsrc && (slot != fwdSlot || !c.hasFwd) ||
				sr.h != ph || sr.seq != p.di.Seq {
				return bad("waiter list of handle %d reaches dead, issued, or recycled handle %d (slot %d)", ph, h, slot)
			}
			links[h]++
			l = c.next[slot]
		}
	}
	for h := range s.uops {
		u := &s.uops[h]
		if !u.live || u.issued || u.class == isa.ClassNone {
			continue
		}
		if u.waiting != links[h] {
			return bad("handle %d waits on %d producers but %d links name it", h, u.waiting, links[h])
		}
		if want, got := s.opReady(h), s.q.IsReady(h) || due[h]; want != got {
			return bad("handle %d (seq %d) ready=%v but predicate says %v", h, u.di.Seq, got, want)
		}
	}
	return nil
}

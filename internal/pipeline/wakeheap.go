package pipeline

import (
	"fmt"
	"slices"

	"repro/internal/simerr"
)

// wakeHeap is the event index behind nextWake (DESIGN.md §14, phase 2): a
// binary min-heap of absolute-cycle thresholds. Stages push a threshold at
// the moment they create it — a completion cycle, a busy-until cycle, a
// port free cycle, a redirect or line-fill arrival, a fetch-queue maturity
// — and nextWake reads the minimum instead of rescanning every uop,
// function unit, and port on each skip attempt.
//
// Invariants the correctness argument rests on:
//
//   - Superset: every threshold a stage predicate compares against s.now is
//     pushed when assigned. The heap may additionally hold thresholds that
//     no longer matter (an overwritten fetchResumeAt, a completion of a
//     recycled handle): a spurious wakeup only shortens a skip, which is
//     always safe.
//
//   - Monotone staleness: every predicate is of the form `threshold ≤ now`
//     (or its negation), so once a threshold falls to ≤ now its comparison
//     outcome is fixed for the rest of the run unless the slot is
//     reassigned — and a reassignment pushes a fresh entry. Entries ≤ now
//     are therefore dead and can be dropped lazily whenever they surface
//     at the top.
//
//   - Bounded occupancy without nextWake: on an always-active workload the
//     skip path never runs, so lazy top-pruning alone would let the heap
//     grow without bound. push therefore prunes up to two stale tops per
//     insertion: with pushes bounded per cycle and thresholds bounded by
//     the machine's latency horizon, the heap's steady-state size is
//     bounded by the live-threshold population and append stops
//     allocating (the zero-allocation regression tests cover this).
//
//   - Exact dedupe: push records each inserted threshold in seen, a
//     direct-mapped table indexed by v&63, and drops v outright when its
//     slot already holds v and v > now. An entry leaves the heap only once
//     it is ≤ now, and now only moves forward between clear calls, so a
//     recorded value still > now is still in the heap and the drop loses
//     nothing. fetchDrainBurst rewinds now by one cycle, but only after a
//     cycle in which fetch mutated nothing and hence pushed nothing, and it
//     enters that cycle only when the heap holds nothing ≤ now+1, so the
//     rewound cycle popped nothing either. A collision overwrites the slot
//     and costs one redundant insert, never a lost one. next therefore
//     answers exactly as the heap without the table would, at every query.
//     clear zeroes the table: Reset restarts now at 0, under thresholds an
//     earlier run recorded.
type wakeHeap struct {
	a    []int64
	seen [64]int64
}

// init sizes the backing array so steady state never reallocates.
func (h *wakeHeap) init(capHint int) {
	h.a = make([]int64, 0, capHint)
}

// clear empties the heap and the dedupe table, keeping the backing array
// (Reset path).
func (h *wakeHeap) clear() {
	h.a = h.a[:0]
	h.seen = [64]int64{}
}

// push inserts threshold v, after pruning up to two stale tops. It drops v
// outright if v is not in the future or is already indexed.
func (h *wakeHeap) push(v, now int64) {
	if len(h.a) > 0 && h.a[0] <= now {
		h.pop()
		if len(h.a) > 0 && h.a[0] <= now {
			h.pop()
		}
	}
	if v <= now || h.seen[v&63] == v {
		return
	}
	h.seen[v&63] = v
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

// pop removes the minimum.
func (h *wakeHeap) pop() {
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a = h.a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.a[l] < h.a[m] {
			m = l
		}
		if r < n && h.a[r] < h.a[m] {
			m = r
		}
		if m == i {
			return
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
}

// next drains stale entries and returns the earliest future threshold, or
// neverWakes if none is indexed.
func (h *wakeHeap) next(now int64) int64 {
	for len(h.a) > 0 && h.a[0] <= now {
		h.pop()
	}
	if len(h.a) == 0 {
		return neverWakes
	}
	return h.a[0]
}

// check audits the dedupe table (Config.Checks): every slot holding a
// value still in the future must name a threshold present in the heap.
func (h *wakeHeap) check(now int64) error {
	for i, v := range h.seen {
		if v > now && !slices.Contains(h.a, v) {
			return fmt.Errorf("%w: wakeHeap: dedupe slot %d holds %d > now but the heap lacks it",
				simerr.ErrInvariant, i, v)
		}
	}
	return nil
}

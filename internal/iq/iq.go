// Package iq models the issue queue organisations of §III-B1 and the PUBS
// priority-entry partitioning of §III-B2.
//
// The modelled select logic is position-based: physical entry 0 has the
// highest grant priority, as in the prefix-sum and tree-arbiter circuits the
// paper cites. The queue kinds differ in how dispatch chooses a physical
// position:
//
//   - Random: dispatch pops a FIFO free list, so an instruction's physical
//     position rotates through the queue over time and long-run entry order
//     is effectively random (the paper's baseline and the organisation PUBS
//     extends). PUBS reserves positions 0..P-1 ("priority entries") with a
//     separate free list; position-based select then automatically grants
//     unconfident-slice instructions first.
//   - Shifting: entries stay compacted in age order (Alpha 21264 style), so
//     position priority equals age priority; modelled for the taxonomy
//     ablation.
//   - Circular: a ring buffer whose holes stay dead until the tail wraps
//     back over them; position priority inverts across the wrap point —
//     reproducing both pathologies the paper describes.
//
// An optional age matrix (§V-G1) lifts the single oldest ready instruction
// to the highest priority ahead of the positional scan.
//
// Readiness is wakeup-driven: the client calls MarkReady(handle) once a
// queued request's operands are available, which sets that entry's bit in a
// persistent per-position ready mask. Select iterates only the ready bits in
// ascending position order — it never consults a readiness predicate — and
// a granted entry's bit leaves with it. The handle→position map that routes
// MarkReady is sized at New for handles below Size and grows to cover any
// larger handle on dispatch (a client that recycles a fixed handle range
// stops growing it after its first pass over that range).
//
// Skip-invariance contract (DESIGN.md §14): the pipeline's idle-cycle skip
// relies on a failed cycle leaving the queue byte-identical. Every
// Dispatch* method mutates nothing when it fails (the free list, ring
// tail, shift window, and handle map are only touched on success), and a
// Select that grants nothing is pure: it reads the ready mask without
// changing it, and the placement RNG is consumed only on pop/grant. The
// ready mask itself changes only through MarkReady, which the pipeline
// calls only from the drain at the top of its issue stage, at readyAt
// cycles that are completion thresholds already in its wakeup heap. Tests
// pin these properties; changing any of them breaks the null-cycle
// induction even if results still look plausible.
//
// The phase-2 burst classes (DESIGN.md §14.2) lean on the same contract
// harder: across a burst span Select is not re-evaluated at all. That is
// sound only because a zero-grant Select is deterministic in the queue
// content, the ready mask, and the free units — the queue changes only via
// Dispatch*/grants (none during a span), and readiness and unit release
// happen at completion thresholds the pipeline publishes into its wakeup
// heap, which bounds every span. A Select that consulted any other state
// (a cycle counter, hidden per-call history) would silently break the
// burst induction.
package iq

import (
	"fmt"
	"math/bits"

	"repro/internal/simerr"
)

// Kind selects the queue organisation.
type Kind uint8

const (
	// Random is the baseline random queue (free-list dispatch).
	Random Kind = iota
	// Shifting is the compacting age-ordered queue.
	Shifting
	// Circular is the non-compacting ring buffer.
	Circular
)

func (k Kind) String() string {
	switch k {
	case Random:
		return "random"
	case Shifting:
		return "shifting"
	case Circular:
		return "circular"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Request is one queued instruction, identified by the pipeline's handle.
type Request struct {
	Handle int    // opaque pipeline identifier
	Seq    uint64 // program-order age (smaller = older)
	FU     int    // function-unit class (isa.Class)
	Marked bool   // unconfident-slice mark, used by the Flexible select
}

// Config sizes a queue.
type Config struct {
	Size            int
	PriorityEntries int // PUBS reserved head entries (Random kind only)
	Kind            Kind
	AgeMatrix       bool // add the age-matrix oldest-first pre-select
	// Flexible enables the idealized §III-C1 select: requests carrying the
	// unconfident mark outrank unmarked requests regardless of position, so
	// no entries need reserving and dispatch never stalls on a partition.
	// The paper argues this circuit is impractical (huge MUX fan-in); it is
	// modelled here as an upper bound for the partitioned design.
	Flexible bool
}

// Queue is one issue queue instance.
//
// Select runs every cycle, so the queue is built to be allocation-free in
// steady state: used, ready, and (for the flexible select) marked positions
// are word bitsets that the select scan iterates with trailing-zero counts
// instead of probing every slot, and grants accumulate into buffers reused
// across calls.
type Queue struct {
	cfg        Config
	slots      []slot    // physical positions 0..Size-1 (Random/Circular)
	list       []Request // compacted age-ordered list (Shifting)
	usedMask   []uint64  // bit per used position (Random/Circular)
	readyMask  []uint64  // bit per queued position marked ready (all kinds)
	markedMask []uint64  // bit per position holding a Marked request (Flexible)
	handlePos  []int32   // handle → queued position, -1 when not queued
	freePri    freeList
	freeNrm    freeList
	count      int
	tail       int // Circular dispatch point

	grantBuf []Request // Select result buffer, reused across calls
	posBuf   []int     // granted positions, reused across calls
}

// freeList hands out free entry positions uniformly at random (seeded,
// deterministic). Random placement is the defining property of the paper's
// random queue; ordered recycling disciplines are systematically biased —
// LIFO parks the youngest instructions at the highest-priority positions,
// and FIFO recycles positions in issue order, degenerating into a circular
// queue whose wrap-around priority inversion resonates with regular loops.
type freeList struct {
	buf []int
	rng uint64
}

func newFreeList(seed uint64) freeList {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return freeList{rng: seed}
}

func (f *freeList) len() int { return len(f.buf) }

func (f *freeList) push(v int) { f.buf = append(f.buf, v) }

func (f *freeList) pop() int {
	n := len(f.buf)
	if n == 0 {
		panic("iq: free-list underflow")
	}
	f.rng ^= f.rng << 13
	f.rng ^= f.rng >> 7
	f.rng ^= f.rng << 17
	i := int(f.rng % uint64(n))
	v := f.buf[i]
	f.buf[i] = f.buf[n-1]
	f.buf = f.buf[:n-1]
	return v
}

type slot struct {
	used     bool
	priority bool
	req      Request
}

// New builds a queue.
func New(cfg Config) *Queue {
	if cfg.Size <= 0 {
		panic("iq: size must be positive")
	}
	if cfg.PriorityEntries < 0 || cfg.PriorityEntries > cfg.Size {
		panic("iq: priority entries out of range")
	}
	if cfg.PriorityEntries > 0 && cfg.Kind != Random {
		panic("iq: priority entries require the random queue")
	}
	if cfg.Flexible && (cfg.PriorityEntries > 0 || cfg.Kind != Random) {
		panic("iq: flexible select replaces priority entries and requires the random queue")
	}
	words := (cfg.Size + 63) / 64
	q := &Queue{cfg: cfg, readyMask: make([]uint64, words)}
	switch cfg.Kind {
	case Random, Circular:
		q.slots = make([]slot, cfg.Size)
		q.usedMask = make([]uint64, words)
	case Shifting:
		q.list = make([]Request, 0, cfg.Size)
	default:
		panic("iq: unknown kind")
	}
	if cfg.Flexible {
		q.markedMask = make([]uint64, words)
	}
	q.handlePos = make([]int32, cfg.Size)
	for i := range q.handlePos {
		q.handlePos[i] = -1
	}
	if cfg.Kind == Random {
		q.freeNrm = newFreeList(0xC0FFEE)
		for i := cfg.PriorityEntries; i < cfg.Size; i++ {
			q.freeNrm.push(i)
		}
		q.freePri = newFreeList(0xBEEF)
		for i := 0; i < cfg.PriorityEntries; i++ {
			q.freePri.push(i)
		}
	}
	return q
}

// Size returns the configured capacity.
func (q *Queue) Size() int { return q.cfg.Size }

// Occupancy returns the number of queued instructions.
func (q *Queue) Occupancy() int { return q.count }

// PriorityFree returns the number of free priority entries.
func (q *Queue) PriorityFree() int { return q.freePri.len() }

// NormalFree returns the number of free normal entries (for the Random
// kind; other kinds report total free capacity).
func (q *Queue) NormalFree() int {
	switch q.cfg.Kind {
	case Random:
		return q.freeNrm.len()
	case Shifting:
		return q.cfg.Size - len(q.list)
	case Circular:
		if q.slots[q.tail].used {
			return 0 // tail blocked: holes behind it are unusable
		}
		return q.cfg.Size - q.count // approximation; dispatch may still block
	}
	return 0
}

// DispatchPriority places r into a priority entry (Random kind only).
func (q *Queue) DispatchPriority(r Request) bool {
	if q.freePri.len() == 0 {
		return false
	}
	pos := q.freePri.pop()
	q.slots[pos] = slot{used: true, priority: true, req: r}
	q.usedMask[pos>>6] |= 1 << (pos & 63)
	q.place(r, pos)
	return true
}

// DispatchNormal places r into a normal entry.
func (q *Queue) DispatchNormal(r Request) bool {
	switch q.cfg.Kind {
	case Random:
		if q.freeNrm.len() == 0 {
			return false
		}
		pos := q.freeNrm.pop()
		q.slots[pos] = slot{used: true, req: r}
		q.usedMask[pos>>6] |= 1 << (pos & 63)
		q.place(r, pos)
		return true
	case Shifting:
		if len(q.list) >= q.cfg.Size {
			return false
		}
		q.list = append(q.list, r)
		q.place(r, len(q.list)-1)
		return true
	case Circular:
		if q.slots[q.tail].used {
			return false // tail blocked even if holes exist elsewhere
		}
		q.slots[q.tail] = slot{used: true, req: r}
		q.usedMask[q.tail>>6] |= 1 << (q.tail & 63)
		q.place(r, q.tail)
		q.tail = (q.tail + 1) % q.cfg.Size
		return true
	}
	return false
}

// DispatchWeighted implements the mode-switch-disabled policy (§III-B3):
// the two free lists are chosen by a random draw weighted by the entry
// ratio; if the drawn list is empty the other is used, so the full capacity
// remains available. pick must be uniform in [0,1).
func (q *Queue) DispatchWeighted(r Request, pick float64) bool {
	if q.cfg.Kind != Random {
		return q.DispatchNormal(r)
	}
	ratio := float64(q.cfg.PriorityEntries) / float64(q.cfg.Size)
	if pick < ratio {
		if q.DispatchPriority(r) {
			return true
		}
		return q.DispatchNormal(r)
	}
	if q.DispatchNormal(r) {
		return true
	}
	return q.DispatchPriority(r)
}

// place records a successful dispatch of r at pos: occupancy, the handle
// map, and the flexible select's mark. A new entry is never ready.
func (q *Queue) place(r Request, pos int) {
	if r.Handle >= len(q.handlePos) {
		grown := make([]int32, max(2*len(q.handlePos), r.Handle+1))
		copy(grown, q.handlePos)
		for i := len(q.handlePos); i < len(grown); i++ {
			grown[i] = -1
		}
		q.handlePos = grown
	}
	q.handlePos[r.Handle] = int32(pos)
	if r.Marked && q.markedMask != nil {
		q.markedMask[pos>>6] |= 1 << (pos & 63)
	}
	q.count++
}

// queuedPos returns the position holding handle, or -1 if it is not queued.
func (q *Queue) queuedPos(handle int) int {
	if handle < 0 || handle >= len(q.handlePos) {
		return -1
	}
	return int(q.handlePos[handle])
}

// MarkReady records that the queued request with this handle has its
// operands available: its entry becomes a Select candidate and stays one
// until granted. It panics if the handle is not queued.
func (q *Queue) MarkReady(handle int) {
	if !q.markReady(handle) {
		panic(fmt.Sprintf("iq: MarkReady of unqueued handle %d", handle))
	}
}

func (q *Queue) markReady(handle int) bool {
	pos := q.queuedPos(handle)
	if pos < 0 {
		return false
	}
	q.readyMask[pos>>6] |= 1 << (pos & 63)
	return true
}

// IsReady reports whether handle is queued and marked ready.
func (q *Queue) IsReady(handle int) bool {
	pos := q.queuedPos(handle)
	return pos >= 0 && q.readyMask[pos>>6]&(1<<(pos&63)) != 0
}

// Select grants up to issueWidth ready requests, honouring position-based
// priority (plus the age matrix when configured), and frees their entries.
// Only entries marked by MarkReady are candidates; fuTryAlloc attempts to
// claim a function unit of the request's class and returns false when none
// is free this cycle. Candidates are offered to fuTryAlloc in exactly the
// order a scan of every used position would reach them.
//
// The returned slice aliases an internal buffer and is only valid until the
// next Select call on this queue.
func (q *Queue) Select(issueWidth int, fuTryAlloc func(fu int) bool) []Request {
	if issueWidth <= 0 || q.count == 0 {
		return nil
	}
	granted := q.grantBuf[:0]
	positions := q.posBuf[:0]

	aged := -1 // position the age matrix granted, skipped by the passes
	if q.cfg.AgeMatrix {
		// The age matrix picks the single oldest ready instruction and
		// grants it ahead of the positional arbiter (§V-G1).
		oldest := -1
		var oldestSeq uint64
		for w, rb := range q.readyMask {
			for ; rb != 0; rb &= rb - 1 {
				pos := w<<6 + bits.TrailingZeros64(rb)
				if seq := q.requestAt(pos).Seq; oldest == -1 || seq < oldestSeq {
					oldest, oldestSeq = pos, seq
				}
			}
		}
		if oldest >= 0 {
			r := q.requestAt(oldest)
			if fuTryAlloc(r.FU) {
				granted = append(granted, *r)
				positions = append(positions, oldest)
				aged = oldest
			}
		}
	}

	passes := 1
	if q.cfg.Flexible {
		// Idealized flexible priority: marked requests first, then the
		// rest. The passes are disjoint, so no entry is offered twice.
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		for w := 0; w < len(q.readyMask) && len(granted) < issueWidth; w++ {
			cand := q.readyMask[w]
			if q.cfg.Flexible {
				if pass == 0 {
					cand &= q.markedMask[w]
				} else {
					cand &^= q.markedMask[w]
				}
			}
			for ; cand != 0 && len(granted) < issueWidth; cand &= cand - 1 {
				pos := w<<6 + bits.TrailingZeros64(cand)
				if pos == aged {
					continue
				}
				r := q.requestAt(pos)
				if !fuTryAlloc(r.FU) {
					continue
				}
				granted = append(granted, *r)
				positions = append(positions, pos)
			}
		}
	}

	// Free granted entries in descending position order: shifting-queue
	// compaction keeps earlier indices valid, and the free-list push order
	// is part of the deterministic placement RNG stream. Positions arrive
	// nearly sorted ascending, so the insertion sort is effectively linear.
	for i := 1; i < len(positions); i++ {
		p := positions[i]
		j := i - 1
		for j >= 0 && positions[j] < p {
			positions[j+1] = positions[j]
			j--
		}
		positions[j+1] = p
	}
	for _, p := range positions {
		q.removeAt(p)
	}
	q.grantBuf, q.posBuf = granted, positions
	return granted
}

// requestAt returns the queued request at a used position.
func (q *Queue) requestAt(pos int) *Request {
	if q.cfg.Kind == Shifting {
		return &q.list[pos]
	}
	return &q.slots[pos].req
}

// removeAt frees the entry at a known position, taking its ready and
// marked bits and its handle mapping with it.
func (q *Queue) removeAt(pos int) {
	switch q.cfg.Kind {
	case Random, Circular:
		s := &q.slots[pos]
		if !s.used {
			panic(fmt.Sprintf("iq: removeAt of free position %d", pos))
		}
		q.handlePos[s.req.Handle] = -1
		if q.cfg.Kind == Random {
			if s.priority {
				q.freePri.push(pos)
			} else {
				q.freeNrm.push(pos)
			}
		}
		*s = slot{}
		bit := uint64(1) << (pos & 63)
		q.usedMask[pos>>6] &^= bit
		q.readyMask[pos>>6] &^= bit
		if q.markedMask != nil {
			q.markedMask[pos>>6] &^= bit
		}
	case Shifting:
		q.handlePos[q.list[pos].Handle] = -1
		q.list = append(q.list[:pos], q.list[pos+1:]...) // compaction
		removeBit(q.readyMask, pos)                      // the mask follows it
		for i := pos; i < len(q.list); i++ {
			q.handlePos[q.list[i].Handle] = int32(i)
		}
	}
	q.count--
}

// removeBit deletes bit pos from a multi-word bitset, shifting every higher
// bit down one position (the shifting queue's compaction, applied to a
// per-position mask).
func removeBit(mask []uint64, pos int) {
	w, b := pos>>6, uint(pos&63)
	low := mask[w] & (1<<b - 1)
	mask[w] = low | mask[w]>>(b+1)<<b
	for i := w + 1; i < len(mask); i++ {
		mask[i-1] |= mask[i] << 63
		mask[i] >>= 1
	}
}

// CheckInvariants audits the queue's structural state: occupancy within
// capacity and consistent with the slot/list contents, priority entries
// only in the reserved positions and never more than configured, free
// lists disjoint from used slots, ready and marked bits only on queued
// positions (marked bits exactly on Marked requests), and a handle map
// that names every queued entry's position and nothing else. Violations
// wrap simerr.ErrInvariant.
func (q *Queue) CheckInvariants() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: iq(%s): %s", simerr.ErrInvariant, q.cfg.Kind, fmt.Sprintf(format, args...))
	}
	if q.count < 0 || q.count > q.cfg.Size {
		return bad("occupancy %d outside [0,%d]", q.count, q.cfg.Size)
	}
	switch q.cfg.Kind {
	case Random, Circular:
		used, priority := 0, 0
		for w := range q.usedMask {
			if stray := q.readyMask[w] &^ q.usedMask[w]; stray != 0 {
				return bad("ready bit on free position %d", w<<6+bits.TrailingZeros64(stray))
			}
		}
		for pos := range q.slots {
			s := &q.slots[pos]
			if got := q.usedMask[pos>>6]&(1<<(pos&63)) != 0; got != s.used {
				return bad("used bitset disagrees with slot %d (bit %v, slot %v)", pos, got, s.used)
			}
			if q.markedMask != nil {
				if got := q.markedMask[pos>>6]&(1<<(pos&63)) != 0; got != (s.used && s.req.Marked) {
					return bad("marked bitset disagrees with slot %d (bit %v)", pos, got)
				}
			}
			if !s.used {
				if s.priority {
					return bad("free position %d still flagged priority", pos)
				}
				continue
			}
			used++
			if s.priority {
				priority++
				if pos >= q.cfg.PriorityEntries {
					return bad("priority instruction in normal position %d", pos)
				}
			}
		}
		if used != q.count {
			return bad("occupancy %d but %d used slots", q.count, used)
		}
		if priority > q.cfg.PriorityEntries {
			return bad("%d priority entries in use, %d configured", priority, q.cfg.PriorityEntries)
		}
		if q.cfg.Kind == Random {
			if got, want := q.freePri.len()+priority, q.cfg.PriorityEntries; got != want {
				return bad("priority free list (%d) + used (%d) ≠ reserved (%d)", q.freePri.len(), priority, want)
			}
			if got, want := q.freeNrm.len()+(used-priority), q.cfg.Size-q.cfg.PriorityEntries; got != want {
				return bad("normal free list (%d) + used (%d) ≠ capacity (%d)", q.freeNrm.len(), used-priority, want)
			}
			for _, pos := range q.freePri.buf {
				if pos < 0 || pos >= q.cfg.PriorityEntries || q.slots[pos].used {
					return bad("priority free list holds invalid or used position %d", pos)
				}
			}
			for _, pos := range q.freeNrm.buf {
				if pos < q.cfg.PriorityEntries || pos >= q.cfg.Size || q.slots[pos].used {
					return bad("normal free list holds invalid or used position %d", pos)
				}
			}
		}
	case Shifting:
		if len(q.list) != q.count {
			return bad("occupancy %d but list length %d", q.count, len(q.list))
		}
		for i := 1; i < len(q.list); i++ {
			if q.list[i].Seq <= q.list[i-1].Seq {
				return bad("age order broken at position %d (seq %d after %d)", i, q.list[i].Seq, q.list[i-1].Seq)
			}
		}
		for pos := len(q.list); pos < q.cfg.Size; pos++ {
			if q.readyMask[pos>>6]&(1<<(pos&63)) != 0 {
				return bad("ready bit on free position %d", pos)
			}
		}
	}
	mapped := 0
	for h, pos := range q.handlePos {
		if pos < 0 {
			continue
		}
		mapped++
		if int(pos) >= q.cfg.Size || (q.cfg.Kind == Shifting && int(pos) >= len(q.list)) ||
			(q.cfg.Kind != Shifting && !q.slots[pos].used) || q.requestAt(int(pos)).Handle != h {
			return bad("handle %d maps to position %d, which does not hold it", h, pos)
		}
	}
	if mapped != q.count {
		return bad("occupancy %d but %d handles mapped", q.count, mapped)
	}
	return nil
}

// Drain empties the queue (used on pipeline reconfiguration in tests).
func (q *Queue) Drain() {
	*q = *New(q.cfg)
}

// Reset restores the freshly-constructed state without reallocating: slots
// and masks cleared, free lists rebuilt with their construction seeds and
// push order so the deterministic random placement sequence restarts
// identically.
func (q *Queue) Reset() {
	for i := range q.slots {
		q.slots[i] = slot{}
	}
	q.list = q.list[:0]
	clear(q.usedMask)
	clear(q.readyMask)
	clear(q.markedMask)
	for i := range q.handlePos {
		q.handlePos[i] = -1
	}
	q.count = 0
	q.tail = 0
	if q.cfg.Kind == Random {
		q.freeNrm.buf = q.freeNrm.buf[:0]
		q.freeNrm.rng = 0xC0FFEE
		for i := q.cfg.PriorityEntries; i < q.cfg.Size; i++ {
			q.freeNrm.push(i)
		}
		q.freePri.buf = q.freePri.buf[:0]
		q.freePri.rng = 0xBEEF
		for i := 0; i < q.cfg.PriorityEntries; i++ {
			q.freePri.push(i)
		}
	}
}

// Kind returns the queue organisation.
func (q *Queue) Kind() Kind { return q.cfg.Kind }

// PriorityEntries returns the number of reserved head entries.
func (q *Queue) PriorityEntries() int { return q.cfg.PriorityEntries }

// AgeMatrixDelayFactor is the paper's measured IQ-delay increase from adding
// an age matrix (§V-G1: +13% from the HSPICE layout study). Experiments use
// it to convert AGE IPC into performance (Fig. 15b).
const AgeMatrixDelayFactor = 1.13

package sampling

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Window is one placed measurement window: where in the dynamic
// instruction stream it starts and the architectural snapshot that seeds
// its detailed simulation. Placement is purely functional — it depends on
// the program and the plan geometry only, never on a machine
// configuration — which is what makes windows shareable across every
// machine variant of a sweep and executable in any order.
type Window struct {
	Index     int    // position in the plan, 0-based
	StartInst uint64 // instruction count at the start of the window's warm-up
	Snap      *emu.Snapshot

	// Pre is the window's predecoded trace: the detailed (warm-up +
	// measure) instruction stream plus replaySlack of tail slack, recorded
	// during the same functional pass that placed the window. Immutable
	// once planned — one buffer feeds every machine variant of a sweep
	// concurrently. Nil when the plan was made with LiveDecode.
	Pre *emu.Predecode
}

// replaySlack is how many instructions past the detailed region the planner
// records. The timing front end overfetches past the last committed
// instruction by at most the fetch queue plus the ROB (≲600 even on the
// "huge" machines), so 2048 keeps every replay on the trace; a hypothetical
// overrun falls back to a live emulator stream, changing nothing but speed.
const replaySlack = 2048

// PlanWindows walks the program once with the functional emulator,
// snapshotting at each window start. Window w starts at instruction
// (w+1)·FastForward + w·(Warmup+Measure) — exactly where a serial detailed
// run would leave off — so the pass never rewinds. A program that halts
// before a window's start truncates the plan there; one that halts inside
// a window's detailed region keeps that window (it may still measure a
// partial tail) and places no more. The context is checked between
// windows.
//
// In trace mode each window also gets a predecode recorder that captures
// its detailed region plus replaySlack instructions of tail slack. The
// pass steps (building records) only while some recorder is open and runs
// the record-free fast-forward otherwise. When the fast-forward is shorter
// than the slack, one window's slack overlaps the next window, and every
// open recorder receives the shared instructions.
func PlanWindows(ctx context.Context, prog *isa.Program, plan Config) ([]Window, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	m, err := emu.New(prog)
	if err != nil {
		return nil, err
	}
	detailed := plan.Warmup + plan.Measure
	p := planPass{m: m, span: int(detailed) + replaySlack}
	var windows []Window
	start := plan.FastForward
	for w := 0; w < plan.Windows; w++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sampling: planning window %d: %w", w, err)
		}
		if !p.advance(start) {
			break // program halted before this window's start
		}
		win := Window{Index: w, StartInst: start, Snap: m.Snapshot()}
		if !plan.LiveDecode {
			win.Pre = emu.NewPredecode(p.span)
			p.open = append(p.open, win.Pre)
		}
		windows = append(windows, win)
		start += detailed + plan.FastForward
	}
	// Fill the recorders still open: the last windows' detailed regions
	// and slack, unless the program halts first.
	for len(p.open) > 0 && p.step() {
	}
	return windows, nil
}

// planPass is PlanWindows' single forward walk: the placement machine and
// the predecode recorders still filling.
type planPass struct {
	m    *emu.Machine
	span int              // records per full recorder: detailed + replaySlack
	open []*emu.Predecode // oldest first; each closes on reaching span
}

// advance executes up to instruction seq, reporting whether the program is
// still running there. Instructions inside an open recorder's span are
// stepped into it; the rest run record-free.
func (p *planPass) advance(seq uint64) bool {
	for p.m.Seq() < seq && !p.m.Done() {
		if len(p.open) == 0 {
			p.m.Run(seq - p.m.Seq())
			break
		}
		p.step()
	}
	return !p.m.Done()
}

// step executes one instruction into every open recorder and closes the
// full ones. It reports false once the program has halted.
func (p *planPass) step() bool {
	di, ok := p.m.Step()
	if !ok {
		return false
	}
	for _, rec := range p.open {
		rec.Append(di)
	}
	// Recorders open in order and fill at one rate, so only the oldest
	// can be full.
	if p.open[0].Len() == p.span {
		p.open = p.open[1:]
	}
	return true
}

// planKey content-addresses a (program, plan geometry) pair. The hash
// covers the program's actual content — code, data image, memory size,
// entry point — not its name, because workload programs are rebuilt per
// call and custom programs may share names. Parallel is excluded: it
// cannot change placement.
func planKey(prog *isa.Program, plan Config) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(len(prog.Code)))
	for _, in := range prog.Code {
		word(uint64(in.Op)<<32 | uint64(in.Rd)<<16 | uint64(in.Rs1)<<8 | uint64(in.Rs2))
		word(uint64(in.Imm))
	}
	word(uint64(len(prog.Data)))
	h.Write(prog.Data)
	word(uint64(prog.MemSize))
	word(uint64(prog.Entry))
	word(uint64(plan.Windows))
	word(plan.FastForward)
	word(plan.Warmup)
	word(plan.Measure)
	// Trace-recording plans cache a different window payload than live
	// plans, and a slack change invalidates recorded traces.
	if plan.LiveDecode {
		word(1)
	} else {
		word(0)
		word(replaySlack)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// StoreStats counts what a Store actually computed, shared, and holds.
type StoreStats struct {
	Plans         uint64 // fast-forward passes executed locally
	PeerPlans     uint64 // plans adopted from a PlanSource instead of computed
	Hits          uint64 // requests answered from an existing (or in-flight) plan
	Evictions     uint64 // completed plans dropped to stay within the byte budget
	ResidentBytes int64  // snapshot + predecode bytes currently held
	ResidentPlans int    // completed plans currently held
}

// PlanSource is the store's remote-plan seam: given a plan content key it
// returns ready-made windows (for example decoded from a peer's serialized
// plan) or reports a miss. It is called inside the store's singleflight
// critical section for the key — concurrent requests for the same plan
// share one fetch exactly as they share one functional pass — so it must
// not call back into the same store.
type PlanSource func(ctx context.Context, key string) ([]Window, bool)

// Store is a content-addressed cache of placed windows with singleflight
// deduplication: concurrent requests for the same (program, plan geometry)
// pair — every machine variant of a grid sweep — share one functional
// fast-forward pass. Snapshots and predecode buffers are immutable, so the
// cached windows are handed out by reference to any number of concurrent
// detailed runs.
//
// A byte budget (NewStoreBudget) bounds the resident footprint with LRU
// eviction over *completed* plans only: an entry is linked into the LRU
// list when its planning pass finishes, so an in-flight singleflight plan —
// and every caller blocked on it — can never be evicted mid-computation.
// Eviction removes the entry from the map; callers already holding its
// windows keep them (immutability + GC make that safe), and the next
// request for the key replans. The most recently used plan always stays
// resident even when it alone exceeds the budget, so a working set of one
// cannot thrash.
type Store struct {
	mu        sync.Mutex
	entries   map[string]*storeEntry
	budget    int64 // max resident bytes; 0 = unbounded
	resident  int64
	plans     uint64
	peerPlans uint64
	hits      uint64
	evictions uint64
	// Intrusive LRU list over completed entries; lruHead is most recent.
	lruHead, lruTail *storeEntry

	// Plan-exchange seams (WithPlanExchange). fetch is tried on a miss
	// before paying the functional pass; planned fires after a successful
	// *local* pass (never for adopted plans, so plans cannot echo around a
	// ring). Both are read without the lock — set them before first use.
	fetch   PlanSource
	planned func(key string, ws []Window)
}

type storeEntry struct {
	key     string
	done    chan struct{}
	windows []Window
	err     error

	bytes      int64
	prev, next *storeEntry
	inLRU      bool
}

// NewStore returns an empty, unbounded window store.
func NewStore() *Store {
	return &Store{entries: make(map[string]*storeEntry)}
}

// NewStoreBudget returns a window store bounded to roughly maxBytes of
// resident snapshot + predecode data. maxBytes <= 0 means unbounded.
func NewStoreBudget(maxBytes int64) *Store {
	s := NewStore()
	s.budget = maxBytes
	return s
}

// WithPlanExchange installs the store's cluster seams and returns the
// store. fetch (may be nil) is consulted on every miss before planning
// locally; planned (may be nil) is invoked — outside the store lock, after
// waiters are released — with the key and windows of every successful
// local pass. Call before the store is shared between goroutines.
func (s *Store) WithPlanExchange(fetch PlanSource, planned func(key string, ws []Window)) *Store {
	s.fetch = fetch
	s.planned = planned
	return s
}

// windowsBytes accounts one plan's resident footprint: every window's
// dirty-page snapshot plus its predecode buffer.
func windowsBytes(ws []Window) int64 {
	var b int64
	for _, w := range ws {
		if w.Snap != nil {
			b += int64(w.Snap.MemBytes())
		}
		if w.Pre != nil {
			b += w.Pre.Bytes()
		}
	}
	return b
}

// pushMRU links a completed entry at the head of the LRU list. Caller holds mu.
func (s *Store) pushMRU(e *storeEntry) {
	e.inLRU = true
	e.prev = nil
	e.next = s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = e
	}
	s.lruHead = e
	if s.lruTail == nil {
		s.lruTail = e
	}
}

// unlink removes e from the LRU list. Caller holds mu.
func (s *Store) unlink(e *storeEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
	e.inLRU = false
}

// touch moves a resident entry to most-recently-used. Caller holds mu.
func (s *Store) touch(e *storeEntry) {
	if !e.inLRU || s.lruHead == e {
		return
	}
	s.unlink(e)
	s.pushMRU(e)
}

// evict drops least-recently-used completed plans until the budget holds,
// always keeping the MRU entry. Caller holds mu.
func (s *Store) evict() {
	if s.budget <= 0 {
		return
	}
	for s.resident > s.budget && s.lruTail != nil && s.lruTail != s.lruHead {
		e := s.lruTail
		s.unlink(e)
		delete(s.entries, e.key)
		s.resident -= e.bytes
		s.evictions++
	}
}

// Windows returns the placed windows for (prog, plan), computing them at
// most once per content key. Concurrent callers for the same key block on
// the first caller's fast-forward; a failed computation (for example a
// cancelled context) is not cached, so later callers retry rather than
// inherit the failure.
func (s *Store) Windows(ctx context.Context, prog *isa.Program, plan Config) ([]Window, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	key := planKey(prog, plan)
	for {
		s.mu.Lock()
		e, ok := s.entries[key]
		if !ok {
			e = &storeEntry{key: key, done: make(chan struct{})}
			s.entries[key] = e
			s.mu.Unlock()
			// Inside the singleflight critical section: try to adopt the
			// plan from a peer before paying the functional pass. Everything
			// queued behind e.done shares whichever path wins.
			adopted := false
			if s.fetch != nil {
				if ws, hit := s.fetch(ctx, key); hit {
					e.windows, adopted = ws, true
				}
			}
			if !adopted {
				s.mu.Lock()
				s.plans++ // local passes only — adopted plans cost no fast-forward
				s.mu.Unlock()
				e.windows, e.err = PlanWindows(ctx, prog, plan)
			}
			s.mu.Lock()
			if e.err != nil {
				delete(s.entries, key)
			} else {
				if adopted {
					s.peerPlans++
				}
				// The plan becomes evictable only now that it is complete;
				// waiters blocked on done still hold e and its windows.
				e.bytes = windowsBytes(e.windows)
				s.resident += e.bytes
				s.pushMRU(e)
				s.evict()
			}
			s.mu.Unlock()
			close(e.done)
			if e.err == nil && !adopted && s.planned != nil {
				// Announce the fresh local plan (proactive push) after
				// waiters are released; adopted plans are never re-announced.
				s.planned(key, e.windows)
			}
			return e.windows, e.err
		}
		if e.inLRU {
			s.touch(e)
		}
		s.mu.Unlock()
		select {
		case <-e.done:
			if e.err == nil {
				s.mu.Lock()
				s.hits++
				s.mu.Unlock()
				return e.windows, nil
			}
			// The computing caller failed; retry unless we are cancelled too.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Plans:         s.plans,
		PeerPlans:     s.peerPlans,
		Hits:          s.hits,
		Evictions:     s.evictions,
		ResidentBytes: s.resident,
	}
	for e := s.lruHead; e != nil; e = e.next {
		st.ResidentPlans++
	}
	return st
}

// Len returns the number of cached plans.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Encoded serializes the resident plan for key, if one has completed.
// In-flight plans report a miss rather than block — the peer answer path
// is cache-only by design (a fetch that could trigger planning on the
// serving node would let two nodes plan for each other in a loop).
// Serving a plan counts as a use for LRU purposes.
func (s *Store) Encoded(key string) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		select {
		case <-e.done:
		default:
			ok = false // still planning
		}
	}
	if !ok || e.err != nil {
		s.mu.Unlock()
		return nil, false
	}
	if e.inLRU {
		s.touch(e)
	}
	ws := e.windows
	s.mu.Unlock()
	data, err := EncodePlan(ws)
	if err != nil {
		return nil, false
	}
	return data, true
}

// Has reports whether a completed plan for key is resident, without
// serializing it or counting a use.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return false
	}
	select {
	case <-e.done:
		return e.err == nil
	default:
		return false
	}
}

package pipeline

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/simerr"
)

// refWakeHeap is the wake index without the dedupe table, kept verbatim as
// the oracle for TestWakeHeapDedupeExact: every push inserts, and only
// top-pruning and next remove entries.
type refWakeHeap struct {
	a []int64
}

func (h *refWakeHeap) clear() { h.a = h.a[:0] }

func (h *refWakeHeap) push(v, now int64) {
	if len(h.a) > 0 && h.a[0] <= now {
		h.pop()
		if len(h.a) > 0 && h.a[0] <= now {
			h.pop()
		}
	}
	if v <= now {
		return
	}
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

func (h *refWakeHeap) pop() {
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

func (h *refWakeHeap) next(now int64) int64 {
	for len(h.a) > 0 && h.a[0] <= now {
		h.pop()
	}
	if len(h.a) == 0 {
		return neverWakes
	}
	return h.a[0]
}

// TestWakeHeapDedupeExact drives the deduplicating wake index and the
// oracle through identical random push/next/clear sequences and demands
// the same answer from every next query. The sequences mix the patterns
// the dedupe must survive: a monotone now with occasional long jumps,
// bursts of equal thresholds (fetch's FetchWidth copies of
// now+FrontEndDepth), thresholds 64·k apart that share a table slot,
// thresholds not in the future, the one-cycle rewind fetchDrainBurst
// performs, and clear followed by re-pushes of thresholds recorded before
// it (Reset restarting now at 0). The table audit runs after every step.
func TestWakeHeapDedupeExact(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h wakeHeap
		var ref refWakeHeap
		var now int64
		var history []int64
		queries := 0
		push := func(v int64) {
			h.push(v, now)
			ref.push(v, now)
			history = append(history, v)
		}
		query := func(step int, op string) {
			queries++
			if got, want := h.next(now), ref.next(now); got != want {
				t.Fatalf("seed %d step %d (%s): next(%d) = %d, oracle %d", seed, step, op, now, got, want)
			}
		}
		for step := 0; step < 3000; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 30:
				op = "advance"
				now += int64(rng.Intn(3))
				if rng.Intn(20) == 0 {
					now += 10 + int64(rng.Intn(500))
				}
			case r < 50:
				op = "burst"
				v := now + 1 + int64(rng.Intn(20))
				for k := 1 + rng.Intn(8); k > 0; k-- {
					push(v)
				}
			case r < 62:
				op = "collide"
				base := now + 1 + int64(rng.Intn(64))
				for k := 0; k < 1+rng.Intn(4); k++ {
					push(base + 64*int64(rng.Intn(6)))
				}
			case r < 75:
				op = "scatter"
				push(now - 5 + int64(rng.Intn(300)))
			case r < 82:
				op = "repush"
				if len(history) > 0 {
					push(history[rng.Intn(len(history))])
				}
			case r < 88:
				// fetchDrainBurst: enter now+1 only when nothing fires
				// there, act, then rewind.
				op = "rewind"
				if h.next(now) > now+1 && ref.next(now) > now+1 {
					now++
					for k := rng.Intn(3); k > 0; k-- {
						push(now + 1 + int64(rng.Intn(10)))
					}
					now--
				}
			case r < 90:
				op = "clear"
				h.clear()
				ref.clear()
				now = int64(rng.Intn(4))
			default:
				op = "next"
			}
			query(step, op)
			if err := h.check(now); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
			}
		}
		if queries == 0 {
			t.Fatalf("seed %d: no next queries ran", seed)
		}
	}
}

// TestWakeHeapDedupeDropsRepeats pins the saving itself: FetchWidth equal
// thresholds pushed in one cycle occupy one heap slot, and a colliding
// threshold evicts the slot rather than being dropped.
func TestWakeHeapDedupeDropsRepeats(t *testing.T) {
	var h wakeHeap
	for i := 0; i < 6; i++ {
		h.push(12, 10)
	}
	if len(h.a) != 1 {
		t.Fatalf("6 equal pushes left %d heap entries, want 1", len(h.a))
	}
	h.push(12+64, 10) // same slot: must insert
	h.push(12, 10)    // slot now names 76: inserts a harmless duplicate
	if len(h.a) != 3 {
		t.Fatalf("colliding pushes left %d heap entries, want 3", len(h.a))
	}
	if got := h.next(10); got != 12 {
		t.Fatalf("next(10) = %d, want 12", got)
	}
	h.clear()
	h.push(76, 0) // recorded before clear; must be re-inserted after it
	if got := h.next(0); got != 76 {
		t.Fatalf("next(0) after clear = %d, want 76", got)
	}
}

// TestWakeHeapCheckCatchesLostEntry shows the Config.Checks audit fires
// when the dedupe table names a future threshold the heap does not hold —
// the state in which a dropped push would lose a wakeup.
func TestWakeHeapCheckCatchesLostEntry(t *testing.T) {
	var h wakeHeap
	h.push(20, 0)
	if err := h.check(0); err != nil {
		t.Fatalf("consistent heap: %v", err)
	}
	h.seen[30&63] = 30 // recorded but never inserted
	err := h.check(0)
	if !errors.Is(err, simerr.ErrInvariant) {
		t.Fatalf("check = %v, want ErrInvariant", err)
	}
	if err := h.check(30); err != nil {
		t.Fatalf("a slot no longer in the future is not a loss: %v", err)
	}
}

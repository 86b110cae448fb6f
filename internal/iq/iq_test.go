package iq

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func alwaysReady(int) bool { return true }

func unlimitedFU(int) bool { return true }

// markReady marks every queued request whose handle satisfies ready — the
// tests' stand-in for the pipeline's wakeup drain. Marks persist until the
// entry is granted, so ready predicates must be monotone across calls.
func markReady(q *Queue, ready func(h int) bool) {
	for h, pos := range q.handlePos {
		if pos >= 0 && ready(h) {
			q.MarkReady(h)
		}
	}
}

// selectReady marks the entries ready reports and then selects.
func selectReady(q *Queue, issueWidth int, ready, fuTryAlloc func(int) bool) []Request {
	markReady(q, ready)
	return q.Select(issueWidth, fuTryAlloc)
}

func req(h int, seq uint64) Request {
	return Request{Handle: h, Seq: seq, FU: int(isa.ClassIntALU)}
}

func TestDispatchAndSelectBasics(t *testing.T) {
	q := New(Config{Size: 8, Kind: Random})
	for i := 0; i < 3; i++ {
		if !q.DispatchNormal(req(i, uint64(i))) {
			t.Fatalf("dispatch %d failed", i)
		}
	}
	if q.Occupancy() != 3 {
		t.Errorf("occupancy = %d", q.Occupancy())
	}
	granted := selectReady(q, 4, alwaysReady, unlimitedFU)
	if len(granted) != 3 {
		t.Fatalf("granted %d, want 3", len(granted))
	}
	if q.Occupancy() != 0 {
		t.Error("entries not freed at issue")
	}
}

func TestIssueWidthLimit(t *testing.T) {
	q := New(Config{Size: 16, Kind: Random})
	for i := 0; i < 10; i++ {
		q.DispatchNormal(req(i, uint64(i)))
	}
	if got := len(selectReady(q, 4, alwaysReady, unlimitedFU)); got != 4 {
		t.Errorf("granted %d, want issue width 4", got)
	}
}

func TestFULimit(t *testing.T) {
	q := New(Config{Size: 16, Kind: Random})
	for i := 0; i < 6; i++ {
		q.DispatchNormal(req(i, uint64(i)))
	}
	remaining := 2
	fu := func(int) bool {
		if remaining == 0 {
			return false
		}
		remaining--
		return true
	}
	if got := len(selectReady(q, 8, alwaysReady, fu)); got != 2 {
		t.Errorf("granted %d, want 2 (FU bound)", got)
	}
}

func TestReadyGating(t *testing.T) {
	q := New(Config{Size: 8, Kind: Random})
	q.DispatchNormal(req(1, 1))
	q.DispatchNormal(req(2, 2))
	ready := func(h int) bool { return h == 2 }
	granted := selectReady(q, 4, ready, unlimitedFU)
	if len(granted) != 1 || granted[0].Handle != 2 {
		t.Errorf("granted %v", granted)
	}
	if q.Occupancy() != 1 {
		t.Error("unready entry must stay queued")
	}
}

// TestReadyMarkPersists: a ready entry that loses its function unit stays
// ready for the next Select without being marked again; unmarked entries
// are never granted; marking an unqueued handle panics.
func TestReadyMarkPersists(t *testing.T) {
	q := New(Config{Size: 8, Kind: Random})
	q.DispatchNormal(req(1, 1))
	q.DispatchNormal(req(2, 2))
	q.MarkReady(1)
	if got := q.Select(4, func(int) bool { return false }); len(got) != 0 {
		t.Fatalf("granted %v with no free unit", got)
	}
	if !q.IsReady(1) || q.IsReady(2) {
		t.Fatalf("IsReady = %v/%v after a zero-grant select, want true/false", q.IsReady(1), q.IsReady(2))
	}
	granted := q.Select(4, unlimitedFU)
	if len(granted) != 1 || granted[0].Handle != 1 {
		t.Fatalf("granted %v, want handle 1 only", granted)
	}
	if q.IsReady(1) {
		t.Error("granted handle still reported ready")
	}
	defer func() {
		if recover() == nil {
			t.Error("MarkReady of an unqueued handle should panic")
		}
	}()
	q.MarkReady(1)
}

func TestPriorityEntriesWinSelection(t *testing.T) {
	q := New(Config{Size: 8, PriorityEntries: 2, Kind: Random})
	// Fill normal entries first, then a priority one.
	for i := 0; i < 4; i++ {
		q.DispatchNormal(req(i, uint64(i)))
	}
	if !q.DispatchPriority(req(99, 99)) {
		t.Fatal("priority dispatch failed")
	}
	// With one grant available, the priority entry (position 0..1) wins
	// despite being the youngest.
	granted := selectReady(q, 1, alwaysReady, unlimitedFU)
	if len(granted) != 1 || granted[0].Handle != 99 {
		t.Errorf("granted %v, want the priority entry", granted)
	}
}

func TestPriorityCapacity(t *testing.T) {
	q := New(Config{Size: 8, PriorityEntries: 2, Kind: Random})
	if !q.DispatchPriority(req(1, 1)) || !q.DispatchPriority(req(2, 2)) {
		t.Fatal("priority entries should accept 2")
	}
	if q.DispatchPriority(req(3, 3)) {
		t.Error("third priority dispatch should fail")
	}
	if q.PriorityFree() != 0 || q.NormalFree() != 6 {
		t.Errorf("free = %d/%d", q.PriorityFree(), q.NormalFree())
	}
	// Issuing a priority entry frees it back to the priority list.
	selectReady(q, 1, alwaysReady, unlimitedFU)
	if q.PriorityFree() != 1 {
		t.Error("issued priority entry not recycled")
	}
}

func TestDispatchWeightedFallsBack(t *testing.T) {
	q := New(Config{Size: 4, PriorityEntries: 2, Kind: Random})
	// Draw < ratio chooses the priority list.
	q.DispatchWeighted(req(1, 1), 0.0)
	q.DispatchWeighted(req(2, 2), 0.0)
	// Priority full: falls back to normal.
	if !q.DispatchWeighted(req(3, 3), 0.0) {
		t.Error("weighted dispatch should fall back to normal")
	}
	// Draw ≥ ratio chooses normal; fill it, then fall back to priority...
	if !q.DispatchWeighted(req(4, 4), 0.9) {
		t.Error("weighted dispatch to normal failed")
	}
	// Queue now full.
	if q.DispatchWeighted(req(5, 5), 0.9) {
		t.Error("full queue accepted a dispatch")
	}
}

func TestAgeMatrixPicksOldest(t *testing.T) {
	q := New(Config{Size: 8, Kind: Random, AgeMatrix: true})
	// Dispatch in an order where the oldest (seq 1) lands at a high
	// physical position: fill positions 0..2 with younger seqs first.
	q.DispatchNormal(req(10, 50))
	q.DispatchNormal(req(11, 51))
	q.DispatchNormal(req(12, 1)) // oldest, position 2
	granted := selectReady(q, 1, alwaysReady, unlimitedFU)
	if len(granted) != 1 || granted[0].Handle != 12 {
		t.Errorf("age matrix granted %v, want the oldest (handle 12)", granted)
	}
}

func TestAgeMatrixRespectsFU(t *testing.T) {
	q := New(Config{Size: 8, Kind: Random, AgeMatrix: true})
	old := Request{Handle: 1, Seq: 1, FU: int(isa.ClassFPU)}
	young := Request{Handle: 2, Seq: 9, FU: int(isa.ClassIntALU)}
	q.DispatchNormal(old)
	q.DispatchNormal(young)
	fu := func(class int) bool { return class == int(isa.ClassIntALU) }
	granted := selectReady(q, 2, alwaysReady, fu)
	if len(granted) != 1 || granted[0].Handle != 2 {
		t.Errorf("granted %v, want only the ALU op", granted)
	}
}

func TestShiftingQueueAgeOrder(t *testing.T) {
	q := New(Config{Size: 4, Kind: Shifting})
	for i := 0; i < 4; i++ {
		q.DispatchNormal(req(i, uint64(i)))
	}
	if q.DispatchNormal(req(9, 9)) {
		t.Error("full shifting queue accepted dispatch")
	}
	// Only entry 2 ready: select grants it; compaction preserves order.
	granted := selectReady(q, 1, func(h int) bool { return h == 2 }, unlimitedFU)
	if len(granted) != 1 || granted[0].Handle != 2 {
		t.Fatalf("granted %v", granted)
	}
	// Next select with everything ready grants in age order 0,1,3.
	granted = selectReady(q, 4, alwaysReady, unlimitedFU)
	want := []int{0, 1, 3}
	for i, g := range granted {
		if g.Handle != want[i] {
			t.Errorf("grant %d = handle %d, want %d (age order broken)", i, g.Handle, want[i])
		}
	}
}

func TestCircularQueueTailBlocking(t *testing.T) {
	q := New(Config{Size: 4, Kind: Circular})
	for i := 0; i < 4; i++ {
		q.DispatchNormal(req(i, uint64(i)))
	}
	// Issue the instruction in the middle (hole at position 1).
	selectReady(q, 1, func(h int) bool { return h == 1 }, unlimitedFU)
	// Tail points at position 0 (still used): dispatch blocks even though a
	// hole exists — the capacity inefficiency the paper describes.
	if q.DispatchNormal(req(9, 9)) {
		t.Error("circular queue dispatched into a hole behind the tail")
	}
	// Drain position 0; the tail slot frees and dispatch succeeds.
	selectReady(q, 1, func(h int) bool { return h == 0 }, unlimitedFU)
	if !q.DispatchNormal(req(9, 9)) {
		t.Error("circular queue should accept dispatch at the freed tail")
	}
}

func TestConfigPanics(t *testing.T) {
	cases := []Config{
		{Size: 0, Kind: Random},
		{Size: 4, PriorityEntries: 5, Kind: Random},
		{Size: 4, PriorityEntries: 2, Kind: Shifting},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: under arbitrary dispatch/select interleavings, occupancy +
// free-list sizes always equal the queue size, and Select never grants
// more than the issue width or the occupancy.
func TestQuickFreeListConservation(t *testing.T) {
	q := New(Config{Size: 16, PriorityEntries: 4, Kind: Random})
	seq := uint64(0)
	f := func(ops []byte) bool {
		for _, op := range ops {
			seq++
			switch op % 4 {
			case 0:
				q.DispatchNormal(req(int(seq), seq))
			case 1:
				q.DispatchPriority(req(int(seq), seq))
			case 2:
				q.DispatchWeighted(req(int(seq), seq), float64(op)/255)
			case 3:
				granted := selectReady(q, 4, func(h int) bool { return h%2 == 0 }, unlimitedFU)
				if len(granted) > 4 {
					return false
				}
			}
			if q.Occupancy()+q.PriorityFree()+q.NormalFree() != 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: whatever was dispatched is eventually granted exactly once.
func TestQuickNoLostOrDuplicatedGrants(t *testing.T) {
	f := func(n uint8) bool {
		q := New(Config{Size: 32, Kind: Random})
		count := int(n%32) + 1
		for i := 0; i < count; i++ {
			if !q.DispatchNormal(req(i, uint64(i))) {
				return false
			}
		}
		seen := make(map[int]bool)
		for q.Occupancy() > 0 {
			for _, g := range selectReady(q, 4, alwaysReady, unlimitedFU) {
				if seen[g.Handle] {
					return false // duplicate grant
				}
				seen[g.Handle] = true
			}
		}
		return len(seen) == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

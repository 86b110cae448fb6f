package iq

// Select microbenchmarks: one op is one select cycle (deliver the wakeups
// due this cycle, grant up to the issue width, then refill the freed
// entries). Run with
//
//	go test -bench Select -benchmem ./internal/iq
//
// BenchmarkSelect sweeps the queue size (64/128/256/512 entries) for every
// kind and select variant: Select walks only the ready mask, so its cost
// should track the ready population rather than the queue size. allocs/op
// must stay 0 — the bitsets, the handle map sized at New, and the reused
// grant buffers exist precisely so the per-cycle select never touches the
// heap.

import (
	"fmt"
	"testing"
)

const (
	benchIssueWidth = 8
	benchWakeDelay  = 6 // cycles from dispatch to wakeup for waiting entries
)

func benchFUBudget() [4]int { return [4]int{4, 4, 2, 2} }

// benchQueue is the surface both queue types expose to the pipeline.
type benchQueue interface {
	DispatchPriority(Request) bool
	DispatchNormal(Request) bool
	MarkReady(int)
	Select(int, func(int) bool) []Request
}

// runSelectBench drives q through steady-state select cycles. Handles come
// from a free pool of size handles (as the pipeline's ROB-indexed uops
// do); every other dispatch is ready at once and the rest wake
// benchWakeDelay cycles later, so Select always sees a mix of ready and
// waiting entries under function-unit contention.
func runSelectBench(b *testing.B, q benchQueue, handles int, priority bool) {
	free := make([]int, 0, handles)
	for h := handles - 1; h >= 0; h-- {
		free = append(free, h)
	}
	type wake struct{ at, h int }
	pending := make([]wake, handles) // FIFO ring: due cycles are monotone
	head, n := 0, 0
	seq := uint64(0)
	dispatch := func(cycle int) bool {
		if len(free) == 0 {
			return false
		}
		h := free[len(free)-1]
		seq++
		r := Request{Handle: h, Seq: seq, FU: int(seq % 4), Marked: seq%3 == 0}
		if !(priority && r.Marked && q.DispatchPriority(r)) && !q.DispatchNormal(r) {
			return false
		}
		free = free[:len(free)-1]
		if seq%2 == 0 {
			q.MarkReady(h)
		} else {
			pending[(head+n)%handles] = wake{cycle + benchWakeDelay, h}
			n++
		}
		return true
	}
	for dispatch(0) {
	}
	var fuLeft [4]int
	fuAlloc := func(fu int) bool {
		if fuLeft[fu] == 0 {
			return false
		}
		fuLeft[fu]--
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n > 0 && pending[head].at <= i {
			q.MarkReady(pending[head].h)
			head = (head + 1) % handles
			n--
		}
		fuLeft = benchFUBudget()
		for _, g := range q.Select(benchIssueWidth, fuAlloc) {
			free = append(free, g.Handle)
		}
		for k := 0; k < benchIssueWidth && dispatch(i); k++ {
		}
	}
}

func BenchmarkSelect(b *testing.B) {
	variants := []struct {
		name string
		cfg  func(size int) Config
	}{
		{"random", func(n int) Config { return Config{Size: n, Kind: Random} }},
		{"random-priority", func(n int) Config { return Config{Size: n, PriorityEntries: n / 10, Kind: Random} }},
		{"random-age", func(n int) Config { return Config{Size: n, Kind: Random, AgeMatrix: true} }},
		{"flexible", func(n int) Config { return Config{Size: n, Kind: Random, Flexible: true} }},
		{"shifting", func(n int) Config { return Config{Size: n, Kind: Shifting} }},
		{"circular", func(n int) Config { return Config{Size: n, Kind: Circular} }},
	}
	for _, v := range variants {
		for _, size := range []int{64, 128, 256, 512} {
			cfg := v.cfg(size)
			b.Run(fmt.Sprintf("%s/%d", v.name, size), func(b *testing.B) {
				runSelectBench(b, New(cfg), size, cfg.PriorityEntries > 0)
			})
		}
	}
}

func BenchmarkSelectDistributed(b *testing.B) {
	d := NewDistributed(DistributedConfig{
		NumQueues:       4,
		TotalSize:       64,
		PriorityEntries: 6,
		Router:          func(fu int) int { return fu & 3 },
	})
	runSelectBench(b, d, 64, true)
}

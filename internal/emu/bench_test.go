package emu

import (
	"testing"

	"repro/internal/workload"
)

// benchChunk is how many instructions each workload machine executes per
// benchmark iteration.
const benchChunk = 1_000

// benchMachines builds one machine per workload, plus its load-time
// snapshot so a machine that halts mid-benchmark can be rewound.
func benchMachines(b *testing.B) ([]*Machine, []*Snapshot) {
	b.Helper()
	var ms []*Machine
	var starts []*Snapshot
	for _, name := range workload.Names() {
		m := MustNew(workload.MustProgram(name))
		ms = append(ms, m)
		starts = append(starts, m.Snapshot())
	}
	return ms, starts
}

// benchEmu times exec-loop throughput over every workload: each iteration
// advances every machine by up to benchChunk instructions with advance.
// Program build and New are outside the timer, and so is rewinding a
// machine that has halted.
func benchEmu(b *testing.B, advance func(m *Machine, n uint64) uint64) {
	ms, starts := benchMachines(b)
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, m := range ms {
			insts += advance(m, benchChunk)
			if m.Done() {
				b.StopTimer()
				if err := m.Restore(starts[j]); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkRun measures the record-free fast-forward path.
func BenchmarkRun(b *testing.B) {
	benchEmu(b, (*Machine).Run)
}

// BenchmarkStep measures the path that builds a DynInst per instruction,
// which live-decode streams and the planner's trace recorders use.
func BenchmarkStep(b *testing.B) {
	benchEmu(b, func(m *Machine, n uint64) uint64 {
		var k uint64
		for ; k < n; k++ {
			if _, ok := m.Step(); !ok {
				break
			}
		}
		return k
	})
}

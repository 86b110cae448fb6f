package emu

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/workload"
)

// sameMachine fails unless a and b hold identical architectural state:
// registers, pc, seq, halt flag, dirty-page bitset and memory.
func sameMachine(t *testing.T, what string, a, b *Machine) {
	t.Helper()
	if a.regs != b.regs {
		t.Fatalf("%s: registers differ", what)
	}
	if a.pc != b.pc || a.seq != b.seq || a.done != b.done {
		t.Fatalf("%s: pc/seq/done %d/%d/%v vs %d/%d/%v", what, a.pc, a.seq, a.done, b.pc, b.seq, b.done)
	}
	if !slices.Equal(a.dirty, b.dirty) {
		t.Fatalf("%s: dirty-page bitsets differ", what)
	}
	if !bytes.Equal(a.mem, b.mem) {
		t.Fatalf("%s: memory differs", what)
	}
}

// checkRunMatchesStep runs prog n instructions through Run on one machine
// and through n calls of Step on another, and requires the same count and
// the same final state.
func checkRunMatchesStep(t *testing.T, prog *isa.Program, n uint64) {
	t.Helper()
	run, step := MustNew(prog), MustNew(prog)
	ran := run.Run(n)
	var stepped uint64
	for ; n == 0 || stepped < n; stepped++ {
		if _, ok := step.Step(); !ok {
			break
		}
	}
	if ran != stepped {
		t.Fatalf("%s n=%d: Run executed %d, Step %d", prog.Name, n, ran, stepped)
	}
	sameMachine(t, fmt.Sprintf("%s n=%d", prog.Name, n), run, step)
}

// TestRunMatchesStepWorkloads: the record-free fast-forward and the
// record-building path share one execution core, so after the same number
// of instructions they must leave bit-identical machines on every workload.
func TestRunMatchesStepWorkloads(t *testing.T) {
	for _, name := range workload.Names() {
		prog := workload.MustProgram(name)
		for _, n := range []uint64{1, 7, 1_000, 20_011} {
			checkRunMatchesStep(t, prog, n)
		}
	}
}

// TestRunMatchesStepEdgeCases covers what the workloads rarely or never
// hit, at every stopping point including past the Halt: Jr and Jal, writes
// to R0, divide and remainder by zero, every FP op, and Halt itself.
func TestRunMatchesStepEdgeCases(t *testing.T) {
	b := asm.New("edges")
	c := b.Floats(2.5, -4.0)
	buf := b.Alloc(64)
	b.Li(isa.R(2), int64(c))
	b.Fld(isa.F(1), isa.R(2), 0)
	b.Fld(isa.F(2), isa.R(2), 8)
	b.Fadd(isa.F(3), isa.F(1), isa.F(2))
	b.Fsub(isa.F(4), isa.F(1), isa.F(2))
	b.Fmul(isa.F(5), isa.F(1), isa.F(2))
	b.Fdiv(isa.F(6), isa.F(1), isa.F(2))
	b.Fclt(isa.R(3), isa.F(2), isa.F(1))
	b.Fcvti(isa.R(4), isa.F(5))
	b.Fcvtf(isa.F(7), isa.R(4))
	b.Li(isa.R(5), int64(buf))
	b.Fst(isa.F(6), isa.R(5), 8)
	b.St(isa.R(4), isa.R(5), 16)
	b.Li(isa.RZero, 42)
	b.Addi(isa.RZero, isa.R(4), 1)
	b.Ld(isa.RZero, isa.R(5), 16)
	b.Div(isa.R(6), isa.R(4), isa.RZero)
	b.Rem(isa.R(7), isa.R(4), isa.RZero)
	b.Li(isa.R(8), 3)
	b.Label("loop")
	b.Addi(isa.R(8), isa.R(8), -1)
	b.Call("fn")
	b.Bne(isa.R(8), isa.RZero, "loop")
	b.Halt()
	b.Label("fn")
	b.Sra(isa.R(9), isa.R(4), isa.R(8))
	b.Ret()
	prog := b.MustBuild()

	total := MustNew(prog).Run(0)
	for n := uint64(0); n <= total+2; n++ {
		checkRunMatchesStep(t, prog, n)
	}
	m := MustNew(prog)
	m.Run(0)
	if m.Reg(isa.RZero) != 0 {
		t.Error("r0 was written")
	}
	if m.Reg(isa.R(6)) != ^uint64(0) || m.Reg(isa.R(7)) != m.Reg(isa.R(4)) {
		t.Error("divide/remainder by zero wrong")
	}
	if m.pc != len(prog.Code)-3 {
		t.Errorf("halted machine's pc = %d, want the Halt at %d", m.pc, len(prog.Code)-3)
	}
}

// TestStepRecordFields pins the parts of a DynInst that Step derives after
// the execution core returns: a conditional branch targets its immediate
// whether or not it is taken, other control transfers target where they
// went, and a Halt's NextPC is its own PC with no target.
func TestStepRecordFields(t *testing.T) {
	b := asm.New("t")
	b.Li(isa.R(2), 1)                 // 0
	b.Beq(isa.R(2), isa.RZero, "end") // 1: not taken
	b.Call("fn")                      // 2
	b.Label("end")
	b.Halt() // 3
	b.Label("fn")
	b.Ret() // 4
	m := MustNew(b.MustBuild())
	var dis []DynInst
	for {
		di, ok := m.Step()
		if !ok {
			break
		}
		dis = append(dis, di)
	}
	if len(dis) != 5 {
		t.Fatalf("executed %d instructions, want 5", len(dis))
	}
	if beq := dis[1]; beq.Taken || beq.Target != isa.PC(3) || beq.NextPC != isa.PC(2) || beq.Class != isa.ClassIntALU {
		t.Errorf("untaken beq: %+v", beq)
	}
	if jal := dis[2]; !jal.Taken || jal.Target != isa.PC(4) || jal.NextPC != isa.PC(4) || jal.Class != isa.ClassNone {
		t.Errorf("jal: %+v", jal)
	}
	if jr := dis[3]; !jr.Taken || jr.Target != isa.PC(3) || jr.NextPC != isa.PC(3) {
		t.Errorf("jr: %+v", jr)
	}
	if halt := dis[4]; halt.Seq != 4 || halt.Target != 0 || halt.NextPC != isa.PC(3) || halt.Taken {
		t.Errorf("halt: %+v", halt)
	}
	if li := dis[0]; li.Target != 0 || li.NextPC != isa.PC(1) || li.Addr != 0 {
		t.Errorf("li: %+v", li)
	}
}

// mustPanicWith runs fn and requires a panic whose message contains want.
func mustPanicWith(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want %q", msg, want)
		}
	}()
	fn()
}

// TestAccessNearAddressSpaceEndRejected: an address within 8 bytes of
// 2^64 must fail the bounds check with the emulator's own diagnostic. An
// end-offset test written as addr+8 wraps to a small value there and lets
// the access through to a raw slice-bounds runtime panic.
func TestAccessNearAddressSpaceEndRejected(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		emit       func(b *asm.Builder)
	}{
		{"ld", "bad load address", func(b *asm.Builder) { b.Ld(isa.R(3), isa.R(2), 0) }},
		{"fld", "bad load address", func(b *asm.Builder) { b.Fld(isa.F(3), isa.R(2), 0) }},
		{"st", "bad store address", func(b *asm.Builder) { b.St(isa.R(3), isa.R(2), 0) }},
		{"fst", "bad store address", func(b *asm.Builder) { b.Fst(isa.F(3), isa.R(2), 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := asm.New("wrap")
			b.Alloc(64)
			b.Addi(isa.R(2), isa.RZero, -8) // 2^64 - 8, 8-aligned
			tc.emit(b)
			b.Halt()
			prog := b.MustBuild()
			mustPanicWith(t, tc.want, func() { MustNew(prog).Run(0) })
			mustPanicWith(t, tc.want, func() {
				m := MustNew(prog)
				for {
					if _, ok := m.Step(); !ok {
						return
					}
				}
			})
		})
	}
}

// TestRunOffCodeRejected: a program that would fall through past its last
// instruction gets Validate's diagnostic from New, never a raw index panic
// from Run.
func TestRunOffCodeRejected(t *testing.T) {
	for _, prog := range []*isa.Program{
		{Name: "lone-nop", Code: []isa.Inst{{Op: isa.Nop}}, MemSize: 64},
		{Name: "cond-tail", Code: []isa.Inst{{Op: isa.Beq, Rs1: isa.RZero, Rs2: isa.R(2), Imm: 0}}, MemSize: 64},
	} {
		m, err := New(prog)
		if err == nil {
			t.Fatalf("%s: New accepted a program that runs off its code", prog.Name)
		}
		if m != nil || !strings.Contains(err.Error(), prog.Name) {
			t.Errorf("%s: New = (%v, %v), want nil and a diagnostic naming the program", prog.Name, m, err)
		}
	}
}

// TestAccessTinyMemoryRejected: a memory smaller than one word holds no
// valid address at all.
func TestAccessTinyMemoryRejected(t *testing.T) {
	prog := &isa.Program{
		Name:    "tiny",
		Code:    []isa.Inst{{Op: isa.Ld, Rd: isa.R(3), Rs1: isa.RZero}, {Op: isa.Halt}},
		MemSize: 4,
	}
	mustPanicWith(t, "bad load address", func() { MustNew(prog).Run(0) })
}

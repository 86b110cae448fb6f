package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegisterConstructors(t *testing.T) {
	if R(0) != RZero || R(1) != RLink {
		t.Error("integer register constants wrong")
	}
	if F(0) != 32 || F(31) != 63 {
		t.Error("fp register mapping wrong")
	}
	if !F(5).IsFP() || R(5).IsFP() {
		t.Error("IsFP wrong")
	}
	if R(3).String() != "r3" || F(3).String() != "f3" {
		t.Errorf("register names wrong: %s %s", R(3), F(3))
	}
	for _, bad := range []func(){func() { R(32) }, func() { F(32) }, func() { R(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range register did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestClassMapping(t *testing.T) {
	cases := []struct {
		op   Op
		want Class
	}{
		{Add, ClassIntALU}, {Slt, ClassIntALU}, {Andi, ClassIntALU},
		{Mul, ClassIntMulDiv}, {Div, ClassIntMulDiv}, {Rem, ClassIntMulDiv},
		{Ld, ClassLoad}, {Fld, ClassLoad},
		{St, ClassStore}, {Fst, ClassStore},
		{Fadd, ClassFPU}, {Fdiv, ClassFPU}, {Fclt, ClassFPU},
		{Beq, ClassIntALU}, {Jr, ClassIntALU},
		{Jmp, ClassNone}, {Jal, ClassNone}, {Nop, ClassNone}, {Halt, ClassNone},
	}
	for _, c := range cases {
		if got := (Inst{Op: c.op}).Class(); got != c.want {
			t.Errorf("%v class = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestPredicates(t *testing.T) {
	br := Inst{Op: Beq}
	if !br.IsCondBranch() || !br.IsControl() || br.IsIndirect() || br.HasDest() {
		t.Error("Beq predicates wrong")
	}
	jr := Inst{Op: Jr, Rs1: RLink}
	if jr.IsCondBranch() || !jr.IsControl() || !jr.IsIndirect() {
		t.Error("Jr predicates wrong")
	}
	ld := Inst{Op: Ld, Rd: R(5)}
	if !ld.IsLoad() || ld.IsStore() || !ld.IsMem() || !ld.HasDest() {
		t.Error("Ld predicates wrong")
	}
	st := Inst{Op: St}
	if st.IsLoad() || !st.IsStore() || st.HasDest() {
		t.Error("St predicates wrong")
	}
	// Writes to the zero register are no destination.
	if (Inst{Op: Add, Rd: RZero}).HasDest() {
		t.Error("write to r0 should not count as a destination")
	}
	if !(Inst{Op: Jal, Rd: RLink}).HasDest() {
		t.Error("Jal writes the link register")
	}
}

func TestSources(t *testing.T) {
	check := func(in Inst, want []Reg) {
		t.Helper()
		srcs, n := in.Sources()
		if n != len(want) {
			t.Fatalf("%v: %d sources, want %d", in, n, len(want))
		}
		for i, w := range want {
			if srcs[i] != w {
				t.Errorf("%v: src[%d] = %v, want %v", in, i, srcs[i], w)
			}
		}
	}
	check(Inst{Op: Add, Rs1: R(2), Rs2: R(3)}, []Reg{R(2), R(3)})
	check(Inst{Op: Addi, Rs1: R(2)}, []Reg{R(2)})
	check(Inst{Op: Ld, Rs1: R(4)}, []Reg{R(4)})
	check(Inst{Op: St, Rs1: R(4), Rs2: R(5)}, []Reg{R(4), R(5)})
	check(Inst{Op: Jmp}, nil)
	check(Inst{Op: Jal, Rd: RLink}, nil)
	check(Inst{Op: Jr, Rs1: RLink}, []Reg{RLink})
	check(Inst{Op: Beq, Rs1: R(6), Rs2: RZero}, []Reg{R(6), RZero})
}

func TestLatencyAndPipelining(t *testing.T) {
	if (Inst{Op: Add}).Latency() != 1 || (Inst{Op: Mul}).Latency() != 3 {
		t.Error("int latencies wrong")
	}
	if (Inst{Op: Div}).Latency() != 20 || (Inst{Op: Fdiv}).Latency() != 12 {
		t.Error("divide latencies wrong")
	}
	for _, op := range []Op{Div, Rem, Fdiv} {
		if (Inst{Op: op}).Pipelined() {
			t.Errorf("%v should block its unit", op)
		}
	}
	for _, op := range []Op{Add, Mul, Fmul, Ld} {
		if !(Inst{Op: op}).Pipelined() {
			t.Errorf("%v should be pipelined", op)
		}
	}
}

func TestPCConversion(t *testing.T) {
	for _, idx := range []int{0, 1, 7, 123456} {
		if Index(PC(idx)) != idx {
			t.Errorf("PC/Index roundtrip failed for %d", idx)
		}
	}
	if PC(3) != 12 {
		t.Errorf("PC(3) = %d, want 12", PC(3))
	}
}

func TestValidate(t *testing.T) {
	// Halt and the unconditional jumps are the only instructions a program
	// may end in: anything else can fall through past its code.
	for _, last := range []Inst{{Op: Halt}, {Op: Jmp}, {Op: Jal, Rd: RLink}, {Op: Jr, Rs1: RLink}} {
		ok := &Program{Name: "ok", Code: []Inst{{Op: Add}, last}, MemSize: 64}
		if err := ok.Validate(); err != nil {
			t.Errorf("valid program rejected: %v", err)
		}
	}
	cases := []*Program{
		{Name: "empty", MemSize: 64},
		{Name: "entry", Code: []Inst{{Op: Halt}}, Entry: 5, MemSize: 64},
		{Name: "data", Code: []Inst{{Op: Halt}}, Data: make([]byte, 100), MemSize: 64},
		{Name: "target", Code: []Inst{{Op: Jmp, Imm: 99}, {Op: Halt}}, MemSize: 64},
		{Name: "reg", Code: []Inst{{Op: Add, Rd: 77}, {Op: Halt}}, MemSize: 64},
		{Name: "lone-nop", Code: []Inst{{Op: Nop}}, MemSize: 64},
		{Name: "cond-tail", Code: []Inst{{Op: Addi, Rd: R(2), Imm: 1}, {Op: Bne, Rs1: R(2), Imm: 0}}, MemSize: 64},
	}
	for _, p := range cases {
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), p.Name) {
			t.Errorf("program %q: Validate = %v, want an error naming it", p.Name, err)
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: Add, Rd: R(2), Rs1: R(3), Rs2: R(4)}, "add r2, r3, r4"},
		{Inst{Op: Addi, Rd: R(2), Rs1: R(3), Imm: 5}, "addi r2, r3, 5"},
		{Inst{Op: Ld, Rd: R(2), Rs1: R(3), Imm: 16}, "ld r2, 16(r3)"},
		{Inst{Op: St, Rs1: R(3), Rs2: R(4), Imm: 8}, "st r4, 8(r3)"},
		{Inst{Op: Beq, Rs1: R(2), Rs2: RZero, Imm: 7}, "beq r2, r0, @7"},
		{Inst{Op: Jmp, Imm: 3}, "jmp @3"},
		{Inst{Op: Halt}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

// Property: branches never have destinations, loads always do (unless r0),
// and every op's class is in range.
func TestQuickInstInvariants(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8) bool {
		in := Inst{Op: Op(op % uint8(numOps)), Rd: Reg(rd % 64), Rs1: Reg(rs1 % 64), Rs2: Reg(rs2 % 64)}
		if in.Class() >= NumClasses {
			return false
		}
		if in.IsCondBranch() && in.HasDest() {
			return false
		}
		if in.IsStore() && in.HasDest() {
			return false
		}
		srcs, n := in.Sources()
		if n < 0 || n > 2 {
			return false
		}
		for i := 0; i < n; i++ {
			if srcs[i] >= NumLogicalRegs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

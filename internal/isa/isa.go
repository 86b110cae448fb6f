// Package isa defines the instruction set architecture simulated by this
// repository: a 64-bit RISC-style ISA with 32 integer and 32 floating-point
// logical registers (64 total, matching the def_tab size assumed by the PUBS
// paper, §IV). Instructions are stored unencoded as Go structs; the PC of
// instruction i is i*4 bytes, mirroring a fixed 4-byte encoding for the
// purpose of table indexing and tag hashing.
package isa

import "fmt"

// Reg names a logical register. Registers 0..31 are the integer file
// (R0 is hardwired to zero, R1 is the link register by convention) and
// registers 32..63 are the floating-point file.
type Reg uint8

// NumLogicalRegs is the total number of logical registers (integer + FP).
// The paper's def_tab has exactly one row per logical register.
const NumLogicalRegs = 64

// Well-known registers.
const (
	RZero Reg = 0 // hardwired zero
	RLink Reg = 1 // conventional link register for Jal/Jr returns
)

// R returns the i-th integer register.
func R(i int) Reg {
	if i < 0 || i > 31 {
		panic(fmt.Sprintf("isa: integer register index %d out of range", i))
	}
	return Reg(i)
}

// F returns the i-th floating-point register.
func F(i int) Reg {
	if i < 0 || i > 31 {
		panic(fmt.Sprintf("isa: fp register index %d out of range", i))
	}
	return Reg(32 + i)
}

// IsFP reports whether r belongs to the floating-point register file.
func (r Reg) IsFP() bool { return r >= 32 }

func (r Reg) String() string {
	if r.IsFP() {
		return fmt.Sprintf("f%d", r-32)
	}
	return fmt.Sprintf("r%d", r)
}

// Op is an operation code.
type Op uint8

// Operation codes. Immediate variants take Imm in place of Rs2.
const (
	Nop Op = iota

	// Integer ALU, register-register.
	Add
	Sub
	And
	Or
	Xor
	Shl
	Shr
	Sra
	Slt  // Rd = (int64(Rs1) < int64(Rs2)) ? 1 : 0
	Sltu // unsigned compare

	// Integer ALU, register-immediate.
	Addi
	Andi
	Ori
	Xori
	Shli
	Shri
	Srai
	Slti

	// Integer multiply/divide (iMULT/DIV unit).
	Mul
	Div // signed divide; divide-by-zero yields all-ones, as on Alpha-ish HW
	Rem

	// Memory (8-byte, naturally aligned).
	Ld  // Rd = mem[Rs1+Imm]
	St  // mem[Rs1+Imm] = Rs2
	Fld // Fd = mem[Rs1+Imm]
	Fst // mem[Rs1+Imm] = Fs2

	// Floating point (FPU).
	Fadd
	Fsub
	Fmul
	Fdiv
	Fclt  // Rd(int) = (F(Rs1) < F(Rs2)) ? 1 : 0
	Fcvti // Rd(int) = int64(F(Rs1))
	Fcvtf // Fd = float64(int64(Rs1))

	// Control flow. Branch/jump targets are absolute instruction indices
	// held in Imm (resolved by the assembler).
	Beq
	Bne
	Blt // signed
	Bge // signed
	Jmp // unconditional direct
	Jal // Rd = index of next instruction; jump to Imm
	Jr  // indirect jump to instruction index in Rs1

	Halt // stop the program

	numOps // sentinel
)

var opNames = [...]string{
	Nop: "nop",
	Add: "add", Sub: "sub", And: "and", Or: "or", Xor: "xor",
	Shl: "shl", Shr: "shr", Sra: "sra", Slt: "slt", Sltu: "sltu",
	Addi: "addi", Andi: "andi", Ori: "ori", Xori: "xori",
	Shli: "shli", Shri: "shri", Srai: "srai", Slti: "slti",
	Mul: "mul", Div: "div", Rem: "rem",
	Ld: "ld", St: "st", Fld: "fld", Fst: "fst",
	Fadd: "fadd", Fsub: "fsub", Fmul: "fmul", Fdiv: "fdiv",
	Fclt: "fclt", Fcvti: "fcvti", Fcvtf: "fcvtf",
	Beq: "beq", Bne: "bne", Blt: "blt", Bge: "bge",
	Jmp: "jmp", Jal: "jal", Jr: "jr",
	Halt: "halt",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class groups operations by the function unit that executes them, matching
// the paper's Table I FU mix (2 iALU, 1 iMULT/DIV, 2 Ld/St, 2 FPU).
// Conditional branches and indirect jumps execute on the integer ALUs.
type Class uint8

// Function-unit classes, in Table I order.
const (
	ClassIntALU    Class = iota // integer ALUs (also branches and Jr)
	ClassIntMulDiv              // the iMULT/DIV unit
	ClassLoad                   // Ld/St units, load side
	ClassStore                  // Ld/St units, store side
	ClassFPU                    // floating-point units
	ClassNone                   // Nop, Halt, and direct jumps: no FU needed

	NumClasses // sentinel
)

var classNames = [...]string{"iALU", "iMULT/DIV", "load", "store", "FPU", "none"}

// String names the function-unit class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Inst is one static instruction.
type Inst struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int64
}

// Class returns the function-unit class of the instruction.
func (in Inst) Class() Class {
	switch in.Op {
	case Mul, Div, Rem:
		return ClassIntMulDiv
	case Ld, Fld:
		return ClassLoad
	case St, Fst:
		return ClassStore
	case Fadd, Fsub, Fmul, Fdiv, Fclt, Fcvti, Fcvtf:
		return ClassFPU
	case Nop, Halt, Jmp, Jal:
		return ClassNone
	case Beq, Bne, Blt, Bge, Jr:
		return ClassIntALU
	default:
		return ClassIntALU
	}
}

// IsCondBranch reports whether the instruction is a conditional branch.
func (in Inst) IsCondBranch() bool {
	switch in.Op {
	case Beq, Bne, Blt, Bge:
		return true
	}
	return false
}

// IsControl reports whether the instruction can change control flow.
func (in Inst) IsControl() bool {
	switch in.Op {
	case Beq, Bne, Blt, Bge, Jmp, Jal, Jr:
		return true
	}
	return false
}

// IsIndirect reports whether the instruction's target comes from a register.
func (in Inst) IsIndirect() bool { return in.Op == Jr }

// IsLoad reports whether the instruction reads memory.
func (in Inst) IsLoad() bool { return in.Op == Ld || in.Op == Fld }

// IsStore reports whether the instruction writes memory.
func (in Inst) IsStore() bool { return in.Op == St || in.Op == Fst }

// IsMem reports whether the instruction accesses memory.
func (in Inst) IsMem() bool { return in.IsLoad() || in.IsStore() }

// HasDest reports whether the instruction writes a register. Writes to the
// hardwired zero register are discarded and count as no destination.
func (in Inst) HasDest() bool {
	switch in.Op {
	case Nop, Halt, St, Fst, Beq, Bne, Blt, Bge, Jmp, Jr:
		return false
	}
	return in.Rd != RZero
}

// HasImmOperand reports whether Imm substitutes for the second source.
func (in Inst) HasImmOperand() bool {
	switch in.Op {
	case Addi, Andi, Ori, Xori, Shli, Shri, Srai, Slti, Ld, St, Fld, Fst:
		return true
	}
	return false
}

// Sources returns the logical source registers read by the instruction.
// Reads of the hardwired zero register are reported (they are trivially
// ready) but never create slice links (nothing writes R0).
func (in Inst) Sources() (srcs [2]Reg, n int) {
	switch in.Op {
	case Nop, Halt, Jmp, Jal:
		return srcs, 0
	case Addi, Andi, Ori, Xori, Shli, Shri, Srai, Slti, Ld, Fld, Fcvti, Fcvtf, Jr:
		srcs[0] = in.Rs1
		return srcs, 1
	case St, Fst:
		srcs[0] = in.Rs1 // address base
		srcs[1] = in.Rs2 // stored value
		return srcs, 2
	default:
		srcs[0] = in.Rs1
		srcs[1] = in.Rs2
		return srcs, 2
	}
}

// Latency returns the execution latency in cycles of the instruction on its
// function unit. Loads return address-generation latency only; the cache
// hierarchy supplies the rest. Divide latencies block (do not pipeline) the
// iMULT/DIV and FPU units.
func (in Inst) Latency() int64 {
	switch in.Op {
	case Mul:
		return 3
	case Div, Rem:
		return 20
	case Fadd, Fsub, Fclt, Fcvti, Fcvtf:
		return 3
	case Fmul:
		return 4
	case Fdiv:
		return 12
	default:
		return 1
	}
}

// Pipelined reports whether the instruction's function unit accepts a new
// operation every cycle while this one executes.
func (in Inst) Pipelined() bool {
	switch in.Op {
	case Div, Rem, Fdiv:
		return false
	}
	return true
}

func (in Inst) String() string {
	switch {
	case in.Op == Nop || in.Op == Halt:
		return in.Op.String()
	case in.IsCondBranch():
		return fmt.Sprintf("%s %s, %s, @%d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case in.Op == Jmp:
		return fmt.Sprintf("jmp @%d", in.Imm)
	case in.Op == Jal:
		return fmt.Sprintf("jal %s, @%d", in.Rd, in.Imm)
	case in.Op == Jr:
		return fmt.Sprintf("jr %s", in.Rs1)
	case in.Op == St || in.Op == Fst:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rs2, in.Imm, in.Rs1)
	case in.Op == Ld || in.Op == Fld:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs1)
	case in.HasImmOperand():
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
	}
}

// Program is a complete executable: code, an initial data image loaded at
// address 0, and the total memory size the program may touch.
type Program struct {
	Name    string
	Code    []Inst
	Data    []byte // initial memory image, loaded at address 0
	MemSize int    // total bytes of memory; must cover Data
	Entry   int    // instruction index where execution starts
}

// PC converts an instruction index to its byte address.
func PC(idx int) uint64 { return uint64(idx) * 4 }

// Index converts a byte PC back to an instruction index.
func Index(pc uint64) int { return int(pc / 4) }

// Validate checks structural invariants: targets in range, registers in
// range, memory image within MemSize, and no way to run off the end of the
// code — the last instruction must be Halt or an unconditional jump, since
// anything else (a conditional branch included) can fall through past it.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: program %q has no code", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Code) {
		return fmt.Errorf("isa: program %q entry %d out of range", p.Name, p.Entry)
	}
	if len(p.Data) > p.MemSize {
		return fmt.Errorf("isa: program %q data image (%d) exceeds MemSize (%d)", p.Name, len(p.Data), p.MemSize)
	}
	for i, in := range p.Code {
		if in.Op >= numOps {
			return fmt.Errorf("isa: program %q inst %d: invalid op %d", p.Name, i, in.Op)
		}
		if in.Rd >= NumLogicalRegs || in.Rs1 >= NumLogicalRegs || in.Rs2 >= NumLogicalRegs {
			return fmt.Errorf("isa: program %q inst %d: register out of range", p.Name, i)
		}
		if in.IsControl() && !in.IsIndirect() {
			if in.Imm < 0 || in.Imm >= int64(len(p.Code)) {
				return fmt.Errorf("isa: program %q inst %d: target %d out of range", p.Name, i, in.Imm)
			}
		}
	}
	switch last := p.Code[len(p.Code)-1]; last.Op {
	case Halt, Jmp, Jal, Jr:
	default:
		return fmt.Errorf("isa: program %q ends in %q: execution can fall through past its last instruction (end with halt or a jump)", p.Name, last)
	}
	return nil
}

// Package emu implements a functional emulator for the simulator's ISA.
// It executes a program architecturally and yields the committed dynamic
// instruction stream (one DynInst per executed instruction) that drives the
// cycle-level timing model — the standard trace-driven arrangement the PUBS
// paper's SimpleScalar-derived simulator also uses.
package emu

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// DynInst is one dynamically executed instruction with its architectural
// outcome. The timing model consumes these in program order.
type DynInst struct {
	Seq    uint64 // commit sequence number, starting at 0
	Idx    int    // static instruction index
	PC     uint64 // byte address (Idx*4)
	Inst   isa.Inst
	Class  isa.Class
	Taken  bool   // control flow: branch/jump taken?
	Target uint64 // byte address of taken-path target (valid when control)
	NextPC uint64 // byte address actually fetched next
	Addr   uint64 // effective address for loads/stores
}

// Machine executes a program one instruction at a time.
type Machine struct {
	prog *isa.Program
	code []isa.Inst                 // prog.Code, held directly for exec
	regs [isa.NumLogicalRegs]uint64 // FP regs hold Float64bits
	mem  []byte
	pc   int // instruction index
	seq  uint64
	done bool

	// dirty tracks which memory pages have been written since load, one bit
	// per pageSize-byte page. Snapshot copies only dirty pages and Restore
	// rebuilds clean ones from the pristine program image, so checkpoints of
	// large, sparsely-written memories stay compact.
	dirty []uint64
}

// New loads the program into a fresh machine.
func New(p *isa.Program) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{prog: p, code: p.Code, pc: p.Entry}
	m.mem = make([]byte, p.MemSize)
	copy(m.mem, p.Data)
	m.dirty = make([]uint64, (numPages(len(m.mem))+63)/64)
	return m, nil
}

// MustNew is New, panicking on error.
func MustNew(p *isa.Program) *Machine {
	m, err := New(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Done reports whether the program has halted.
func (m *Machine) Done() bool { return m.done }

// Seq returns the number of instructions executed so far.
func (m *Machine) Seq() uint64 { return m.seq }

// Reg returns the architectural value of a register (for tests/inspection).
func (m *Machine) Reg(r isa.Reg) uint64 { return m.regs[r] }

// FReg returns a floating-point register's value.
func (m *Machine) FReg(r isa.Reg) float64 { return math.Float64frombits(m.regs[r]) }

// ReadWord returns the 8-byte word at addr (for tests/inspection).
func (m *Machine) ReadWord(addr uint64) uint64 { return m.load(addr) }

// inBounds reports whether the 8-byte word at addr is aligned and lies
// inside memory. It is written so that no sum can wrap: addr near 2^64
// must fail here, not slip past as a small end offset.
func (m *Machine) inBounds(addr uint64) bool {
	return addr%8 == 0 && addr < uint64(len(m.mem)) && uint64(len(m.mem))-addr >= 8
}

func (m *Machine) load(addr uint64) uint64 {
	if !m.inBounds(addr) {
		panic(fmt.Sprintf("emu %q: bad load address %#x (mem %d) at pc %d",
			m.prog.Name, addr, len(m.mem), m.pc))
	}
	b := m.mem[addr : addr+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (m *Machine) store(addr, v uint64) {
	if !m.inBounds(addr) {
		panic(fmt.Sprintf("emu %q: bad store address %#x (mem %d) at pc %d",
			m.prog.Name, addr, len(m.mem), m.pc))
	}
	// A store is 8-byte aligned and pageSize is a multiple of 8, so the
	// write never straddles a page boundary.
	m.dirty[addr>>pageShift>>6] |= 1 << (addr >> pageShift & 63)
	b := m.mem[addr : addr+8]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func (m *Machine) setReg(r isa.Reg, v uint64) {
	if r == isa.RZero {
		return
	}
	m.regs[r] = v
}

func (m *Machine) fval(r isa.Reg) float64 { return math.Float64frombits(m.regs[r]) }
func (m *Machine) setF(r isa.Reg, v float64) {
	m.setReg(r, math.Float64bits(v))
}

// exec executes the instruction at pc: it updates the registers, memory,
// dirty bits, pc, seq and the halt flag, and returns what a dynamic record
// needs beyond the static instruction and the new pc — whether control
// transferred and the effective memory address (0 for non-memory ops). It
// is the emulator's only copy of the ISA semantics: Run loops on it alone,
// and Step wraps it with a DynInst. The caller checks done first.
func (m *Machine) exec() (taken bool, addr uint64) {
	idx := m.pc
	in := &m.code[idx]
	next := idx + 1
	// Every direct control transfer goes to the immediate; Jr overrides it.
	target := int(in.Imm)

	switch in.Op {
	case isa.Nop:
	case isa.Add:
		m.setReg(in.Rd, m.regs[in.Rs1]+m.regs[in.Rs2])
	case isa.Sub:
		m.setReg(in.Rd, m.regs[in.Rs1]-m.regs[in.Rs2])
	case isa.And:
		m.setReg(in.Rd, m.regs[in.Rs1]&m.regs[in.Rs2])
	case isa.Or:
		m.setReg(in.Rd, m.regs[in.Rs1]|m.regs[in.Rs2])
	case isa.Xor:
		m.setReg(in.Rd, m.regs[in.Rs1]^m.regs[in.Rs2])
	case isa.Shl:
		m.setReg(in.Rd, m.regs[in.Rs1]<<(m.regs[in.Rs2]&63))
	case isa.Shr:
		m.setReg(in.Rd, m.regs[in.Rs1]>>(m.regs[in.Rs2]&63))
	case isa.Sra:
		m.setReg(in.Rd, uint64(int64(m.regs[in.Rs1])>>(m.regs[in.Rs2]&63)))
	case isa.Slt:
		m.setReg(in.Rd, b2u(int64(m.regs[in.Rs1]) < int64(m.regs[in.Rs2])))
	case isa.Sltu:
		m.setReg(in.Rd, b2u(m.regs[in.Rs1] < m.regs[in.Rs2]))

	case isa.Addi:
		m.setReg(in.Rd, m.regs[in.Rs1]+uint64(in.Imm))
	case isa.Andi:
		m.setReg(in.Rd, m.regs[in.Rs1]&uint64(in.Imm))
	case isa.Ori:
		m.setReg(in.Rd, m.regs[in.Rs1]|uint64(in.Imm))
	case isa.Xori:
		m.setReg(in.Rd, m.regs[in.Rs1]^uint64(in.Imm))
	case isa.Shli:
		m.setReg(in.Rd, m.regs[in.Rs1]<<(uint64(in.Imm)&63))
	case isa.Shri:
		m.setReg(in.Rd, m.regs[in.Rs1]>>(uint64(in.Imm)&63))
	case isa.Srai:
		m.setReg(in.Rd, uint64(int64(m.regs[in.Rs1])>>(uint64(in.Imm)&63)))
	case isa.Slti:
		m.setReg(in.Rd, b2u(int64(m.regs[in.Rs1]) < in.Imm))

	case isa.Mul:
		m.setReg(in.Rd, m.regs[in.Rs1]*m.regs[in.Rs2])
	case isa.Div:
		d := int64(m.regs[in.Rs2])
		if d == 0 {
			m.setReg(in.Rd, ^uint64(0))
		} else {
			m.setReg(in.Rd, uint64(int64(m.regs[in.Rs1])/d))
		}
	case isa.Rem:
		d := int64(m.regs[in.Rs2])
		if d == 0 {
			m.setReg(in.Rd, m.regs[in.Rs1])
		} else {
			m.setReg(in.Rd, uint64(int64(m.regs[in.Rs1])%d))
		}

	case isa.Ld:
		addr = m.regs[in.Rs1] + uint64(in.Imm)
		m.setReg(in.Rd, m.load(addr))
	case isa.St:
		addr = m.regs[in.Rs1] + uint64(in.Imm)
		m.store(addr, m.regs[in.Rs2])
	case isa.Fld:
		addr = m.regs[in.Rs1] + uint64(in.Imm)
		m.regs[in.Rd] = m.load(addr)
	case isa.Fst:
		addr = m.regs[in.Rs1] + uint64(in.Imm)
		m.store(addr, m.regs[in.Rs2])

	case isa.Fadd:
		m.setF(in.Rd, m.fval(in.Rs1)+m.fval(in.Rs2))
	case isa.Fsub:
		m.setF(in.Rd, m.fval(in.Rs1)-m.fval(in.Rs2))
	case isa.Fmul:
		m.setF(in.Rd, m.fval(in.Rs1)*m.fval(in.Rs2))
	case isa.Fdiv:
		m.setF(in.Rd, m.fval(in.Rs1)/m.fval(in.Rs2))
	case isa.Fclt:
		m.setReg(in.Rd, b2u(m.fval(in.Rs1) < m.fval(in.Rs2)))
	case isa.Fcvti:
		m.setReg(in.Rd, uint64(int64(m.fval(in.Rs1))))
	case isa.Fcvtf:
		m.setF(in.Rd, float64(int64(m.regs[in.Rs1])))

	case isa.Beq:
		taken = m.regs[in.Rs1] == m.regs[in.Rs2]
	case isa.Bne:
		taken = m.regs[in.Rs1] != m.regs[in.Rs2]
	case isa.Blt:
		taken = int64(m.regs[in.Rs1]) < int64(m.regs[in.Rs2])
	case isa.Bge:
		taken = int64(m.regs[in.Rs1]) >= int64(m.regs[in.Rs2])
	case isa.Jmp:
		taken = true
	case isa.Jal:
		taken = true
		m.setReg(in.Rd, uint64(idx+1))
	case isa.Jr:
		taken = true
		target = int(m.regs[in.Rs1])
		if target < 0 || target >= len(m.code) {
			panic(fmt.Sprintf("emu %q: jr to invalid index %d at pc %d", m.prog.Name, target, idx))
		}

	case isa.Halt:
		// A halted machine keeps its pc on the Halt.
		m.done = true
		next = idx

	default:
		panic(fmt.Sprintf("emu %q: unimplemented op %v at pc %d", m.prog.Name, in.Op, idx))
	}

	if taken {
		next = target
	}
	m.pc = next
	m.seq++
	return taken, addr
}

// opDecode is the per-opcode part of a DynInst that Step derives from the
// static instruction, tabulated once from the isa predicates so the
// record-building path pays one load instead of three opcode switches.
type opDecode struct {
	class   isa.Class
	cond    bool // conditional branch: target is the immediate
	control bool // any control transfer: target is where it went
}

var opDecodes [256]opDecode

func init() {
	for op := range opDecodes {
		in := isa.Inst{Op: isa.Op(op)}
		opDecodes[op] = opDecode{class: in.Class(), cond: in.IsCondBranch(), control: in.IsControl()}
	}
}

// Step executes one instruction and returns its dynamic record.
// ok is false once the program has halted.
func (m *Machine) Step() (di DynInst, ok bool) {
	if m.done {
		return DynInst{}, false
	}
	idx := m.pc
	taken, addr := m.exec()
	in := &m.code[idx]
	dec := &opDecodes[in.Op]
	di = DynInst{
		Seq:    m.seq - 1,
		Idx:    idx,
		PC:     isa.PC(idx),
		Inst:   *in,
		Class:  dec.class,
		Taken:  taken,
		NextPC: isa.PC(m.pc),
		Addr:   addr,
	}
	if dec.cond {
		di.Target = isa.PC(int(in.Imm))
	} else if dec.control {
		di.Target = di.NextPC
	}
	return di, true
}

// Run executes up to max instructions (all of them if max == 0), returning
// the number executed. It builds no dynamic records, which makes it the
// functional fast-forward path.
func (m *Machine) Run(max uint64) uint64 {
	if max == 0 {
		max = math.MaxUint64
	}
	var n uint64
	for n < max && !m.done {
		m.exec()
		n++
	}
	return n
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

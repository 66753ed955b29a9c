// Package prog provides a small assembler-style builder for constructing
// programs in the simulator's ISA, with labels, forward-reference fixup,
// and data-segment initialization. The workload package uses it to write
// the synthetic benchmark kernels.
package prog

import (
	"fmt"

	"faulthound/internal/isa"
)

// Program is an assembled program: code (instruction indices are the
// PC), an initial data image, and the entry point. Its exported fields
// are never written after it is built, and its stream cache guards
// itself, so one Program may be shared by any number of cores and
// goroutines.
type Program struct {
	Name  string
	Code  []isa.Inst
	Entry uint64
	// Data maps 8-byte-aligned addresses to initial 64-bit values.
	Data map[uint64]uint64
	// DataBase and DataSize describe the mapped data segment; accesses
	// outside [DataBase, DataBase+DataSize) raise a translation
	// exception in the simulator (the paper's "noisy" faults).
	DataBase uint64
	DataSize uint64

	// streams caches VisitMemOps's load/store streams (stream.go).
	streams memStreams
}

// Validate checks structural sanity: branch targets in range, registers
// valid, entry in range.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("prog %s: empty code", p.Name)
	}
	if p.Entry >= uint64(len(p.Code)) {
		return fmt.Errorf("prog %s: entry %d out of range", p.Name, p.Entry)
	}
	for pc, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("prog %s: invalid opcode at %d", p.Name, pc)
		}
		switch in.Op {
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.JMP, isa.JAL:
			if in.Imm < 0 || int(in.Imm) >= len(p.Code) {
				return fmt.Errorf("prog %s: branch target %d out of range at %d", p.Name, in.Imm, pc)
			}
		}
		for _, r := range []isa.Reg{in.Rd, in.Rs1, in.Rs2} {
			if !r.Valid() {
				return fmt.Errorf("prog %s: invalid register %d at %d", p.Name, r, pc)
			}
		}
	}
	for addr := range p.Data {
		if addr%8 != 0 {
			return fmt.Errorf("prog %s: unaligned data address %#x", p.Name, addr)
		}
		if addr < p.DataBase || addr >= p.DataBase+p.DataSize {
			return fmt.Errorf("prog %s: data address %#x outside segment", p.Name, addr)
		}
	}
	return nil
}

// Builder assembles a Program instruction by instruction.
type Builder struct {
	name     string
	code     []isa.Inst
	labels   map[string]uint64
	fixups   []fixup
	data     map[uint64]uint64
	dataBase uint64
	dataSize uint64
	errs     []error
}

type fixup struct {
	pc    int
	label string
}

// DefaultDataBase is the start of the data segment used by the builder
// unless overridden; it is far from instruction index space so flipped
// address bits usually leave the segment (becoming "noisy" faults).
const DefaultDataBase = 0x10000000

// NewBuilder creates a builder for a program with the given name and a
// data segment of dataSize bytes at DefaultDataBase.
func NewBuilder(name string, dataSize uint64) *Builder {
	return NewBuilderAt(name, DefaultDataBase, dataSize)
}

// NewBuilderAt creates a builder with an explicit data-segment base
// (8-byte aligned). Per-thread program copies use disjoint bases so SMT
// contexts do not share data, matching the paper's setup of independent
// program copies.
func NewBuilderAt(name string, base, dataSize uint64) *Builder {
	if base%8 != 0 {
		panic("prog: unaligned data base")
	}
	return &Builder{
		name:     name,
		labels:   make(map[string]uint64),
		data:     make(map[uint64]uint64),
		dataBase: base,
		dataSize: dataSize,
	}
}

// DataBase returns the base address of the data segment.
func (b *Builder) DataBase() uint64 { return b.dataBase }

// PC returns the index the next emitted instruction will occupy.
func (b *Builder) PC() uint64 { return uint64(len(b.code)) }

// Label defines a label at the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("duplicate label %q", name))
		return
	}
	b.labels[name] = b.PC()
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) {
	b.code = append(b.code, in)
}

// emitLabelled appends an instruction whose Imm is the address of label,
// fixed up at Build time.
func (b *Builder) emitLabelled(in isa.Inst, label string) {
	b.fixups = append(b.fixups, fixup{pc: len(b.code), label: label})
	b.code = append(b.code, in)
}

// --- Convenience emitters (assembly-like surface) ---

// Op3 emits a three-register instruction rd = rs1 op rs2.
func (b *Builder) Op3(op isa.Op, rd, rs1, rs2 isa.Reg) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// OpI emits a register-immediate instruction rd = rs1 op imm.
func (b *Builder) OpI(op isa.Op, rd, rs1 isa.Reg, imm int32) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// MovI emits rd = imm (sign-extended 32-bit).
func (b *Builder) MovI(rd isa.Reg, imm int32) {
	b.Emit(isa.Inst{Op: isa.MOVI, Rd: rd, Imm: imm})
}

// MovU64 emits a sequence loading an arbitrary 64-bit constant into rd.
func (b *Builder) MovU64(rd isa.Reg, v uint64) {
	hi := int32(v >> 32)
	lo := v & 0xffffffff
	if hi == 0 && lo&0x80000000 == 0 {
		b.MovI(rd, int32(lo))
		return
	}
	// Build hi<<32 | lo with two 16-bit OR chunks; any sign extension
	// from MovI is shifted out by the two 16-bit shifts.
	b.MovI(rd, hi)
	b.OpI(isa.SLLI, rd, rd, 16)
	b.OpI(isa.ORI, rd, rd, int32(lo>>16&0xffff))
	b.OpI(isa.SLLI, rd, rd, 16)
	b.OpI(isa.ORI, rd, rd, int32(lo&0xffff))
}

// Ld emits rd = mem[rs1+off].
func (b *Builder) Ld(rd, rs1 isa.Reg, off int32) {
	b.Emit(isa.Inst{Op: isa.LD, Rd: rd, Rs1: rs1, Imm: off})
}

// St emits mem[rs1+off] = rs2.
func (b *Builder) St(rs1 isa.Reg, off int32, rs2 isa.Reg) {
	b.Emit(isa.Inst{Op: isa.ST, Rs1: rs1, Rs2: rs2, Imm: off})
}

// Br emits a conditional branch to label.
func (b *Builder) Br(op isa.Op, rs1, rs2 isa.Reg, label string) {
	b.emitLabelled(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2}, label)
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) {
	b.emitLabelled(isa.Inst{Op: isa.JMP}, label)
}

// Call emits a JAL to label, linking in isa.RLink.
func (b *Builder) Call(label string) {
	b.emitLabelled(isa.Inst{Op: isa.JAL, Rd: isa.RLink}, label)
}

// Ret emits a return through the link register.
func (b *Builder) Ret() {
	b.Emit(isa.Inst{Op: isa.JALR, Rd: isa.RZero, Rs1: isa.RLink})
}

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.NOP}) }

// Halt emits a thread-terminating instruction.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.HALT}) }

// Word initializes the 64-bit word at data-segment offset off (bytes).
func (b *Builder) Word(off uint64, v uint64) {
	addr := b.dataBase + off
	if off%8 != 0 || off+8 > b.dataSize {
		b.errs = append(b.errs, fmt.Errorf("bad data offset %#x", off))
		return
	}
	b.data[addr] = v
}

// Build resolves labels and returns the validated program.
func (b *Builder) Build() (*Program, error) {
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			b.errs = append(b.errs, fmt.Errorf("undefined label %q at pc %d", f.label, f.pc))
			continue
		}
		b.code[f.pc].Imm = int32(target)
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("prog %s: %d errors, first: %w", b.name, len(b.errs), b.errs[0])
	}
	p := &Program{
		Name:     b.name,
		Code:     b.code,
		Data:     b.data,
		DataBase: b.dataBase,
		DataSize: b.dataSize,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build for known-good programs; it panics on error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

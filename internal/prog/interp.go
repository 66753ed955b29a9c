package prog

import (
	"fmt"

	"faulthound/internal/isa"
)

// Interp is a sequential, architecturally exact interpreter for a
// Program. It is the golden model the out-of-order pipeline is tested
// against: after N committed instructions, the pipeline's architectural
// state must equal the interpreter's state after N steps.
type Interp struct {
	Prog *Program
	PC   uint64
	Regs [isa.NumArchRegs]uint64
	// pages holds the data segment in 4 KiB pages, indexed by
	// (addr-DataBase)>>pageShift and allocated on first store; a page
	// never stored to, nil or past the end, reads as zeros.
	pages []*[pageWords]uint64
	// Halted reports that a HALT instruction was executed.
	Halted bool
	// Steps counts executed instructions.
	Steps uint64
	// Faulted holds a translation-exception description, if any.
	Faulted error
}

const (
	pageShift = 12 // 4 KiB data pages
	pageWords = 1 << pageShift / 8
)

// NewInterp creates an interpreter positioned at the program entry with
// the initial data image loaded.
func NewInterp(p *Program) *Interp {
	it := &Interp{Prog: p, PC: p.Entry}
	for a, v := range p.Data {
		// A word outside the segment (Validate rejects it) can never be
		// loaded, so it is left out.
		if it.inSegment(a) {
			it.store(a, v)
		}
	}
	return it
}

// inSegment reports whether an 8-byte access at addr is mapped.
func (it *Interp) inSegment(addr uint64) bool {
	return addr >= it.Prog.DataBase && addr+8 <= it.Prog.DataBase+it.Prog.DataSize && addr%8 == 0
}

// Load returns the data word at addr: 0 for a word never written, or
// for an address outside the data segment.
func (it *Interp) Load(addr uint64) uint64 {
	if !it.inSegment(addr) {
		return 0
	}
	return it.load(addr)
}

// load reads the word at addr, which must be in the segment.
func (it *Interp) load(addr uint64) uint64 {
	off := addr - it.Prog.DataBase
	if i := off >> pageShift; i < uint64(len(it.pages)) {
		if pg := it.pages[i]; pg != nil {
			return pg[off/8%pageWords]
		}
	}
	return 0
}

// store writes the word at addr, which must be in the segment. The page
// table grows only as far as the highest page stored to, so a large,
// sparsely used segment costs no more than the pages it touches.
func (it *Interp) store(addr, v uint64) {
	off := addr - it.Prog.DataBase
	i := off >> pageShift
	if n := uint64(len(it.pages)); i >= n {
		it.pages = append(it.pages, make([]*[pageWords]uint64, i+1-n)...)
	}
	pg := it.pages[i]
	if pg == nil {
		pg = new([pageWords]uint64)
		it.pages[i] = pg
	}
	pg[off/8%pageWords] = v
}

// Step executes one instruction. It returns false when the interpreter
// cannot make progress (halted, faulted, or PC out of range).
func (it *Interp) Step() bool {
	if it.Halted || it.Faulted != nil {
		return false
	}
	if it.PC >= uint64(len(it.Prog.Code)) {
		it.Faulted = fmt.Errorf("pc %d out of range", it.PC)
		return false
	}
	in := it.Prog.Code[it.PC]
	s1, s2 := it.Regs[in.Rs1], it.Regs[in.Rs2]
	out := isa.Exec(in, it.PC, s1, s2)
	it.Steps++

	switch {
	case out.Halt:
		it.Halted = true
		return false
	case in.Op == isa.LD:
		if !it.inSegment(out.EffAddr) {
			it.Faulted = fmt.Errorf("load translation exception at %#x", out.EffAddr)
			return false
		}
		it.write(in.Rd, it.load(out.EffAddr))
	case in.Op == isa.ST:
		if !it.inSegment(out.EffAddr) {
			it.Faulted = fmt.Errorf("store translation exception at %#x", out.EffAddr)
			return false
		}
		it.store(out.EffAddr, out.Value)
	case in.IsAtomic():
		if !it.inSegment(out.EffAddr) {
			it.Faulted = fmt.Errorf("atomic translation exception at %#x", out.EffAddr)
			return false
		}
		old := it.load(out.EffAddr)
		it.write(in.Rd, old)
		if in.Op == isa.AMOADD {
			it.store(out.EffAddr, old+out.Value)
		} else {
			it.store(out.EffAddr, out.Value)
		}
	case in.HasDest():
		it.write(in.Rd, out.Value)
	}

	if out.Taken {
		it.PC = out.Target
	} else {
		it.PC++
	}
	return true
}

func (it *Interp) write(rd isa.Reg, v uint64) {
	if rd == isa.RZero {
		return
	}
	it.Regs[rd] = v
}

// Run executes up to maxSteps instructions and returns the number
// executed.
func (it *Interp) Run(maxSteps uint64) uint64 {
	var n uint64
	for n < maxSteps && it.Step() {
		n++
	}
	// Step() returning false after executing HALT still counted it.
	return it.Steps
}

package prog

import (
	"strings"
	"testing"

	"faulthound/internal/isa"
)

func TestBuilderLabelsAndBranches(t *testing.T) {
	b := NewBuilder("t", 64)
	b.MovI(1, 0)
	b.MovI(2, 10)
	b.Label("loop")
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The branch at PC 3 should target PC 2.
	if p.Code[3].Imm != 2 {
		t.Fatalf("branch fixup: imm = %d, want 2", p.Code[3].Imm)
	}
}

func TestBuilderForwardReference(t *testing.T) {
	b := NewBuilder("t", 64)
	b.Jmp("end")
	b.Nop()
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != 2 {
		t.Fatalf("forward fixup: imm = %d, want 2", p.Code[0].Imm)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("t", 64)
	b.Jmp("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Fatalf("expected undefined-label error, got %v", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("t", 64)
	b.Label("a")
	b.Nop()
	b.Label("a")
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Fatalf("expected duplicate-label error, got %v", err)
	}
}

func TestBuilderBadDataOffset(t *testing.T) {
	b := NewBuilder("t", 16)
	b.Word(4, 1) // unaligned
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for unaligned data offset")
	}
	b2 := NewBuilder("t", 16)
	b2.Word(16, 1) // out of segment
	b2.Halt()
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected error for out-of-segment data offset")
	}
}

func TestValidateCatchesBadBranchTarget(t *testing.T) {
	p := &Program{
		Name:     "bad",
		Code:     []isa.Inst{{Op: isa.JMP, Imm: 99}},
		DataSize: 0,
	}
	if err := p.Validate(); err == nil {
		t.Fatal("expected out-of-range branch target error")
	}
}

func TestValidateEmptyProgram(t *testing.T) {
	p := &Program{Name: "empty"}
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for empty program")
	}
}

func TestMovU64(t *testing.T) {
	for _, v := range []uint64{0, 1, 0x7fffffff, 0x80000000, 0xffffffff,
		0x123456789abcdef0, ^uint64(0), 0x10000000} {
		b := NewBuilder("t", 64)
		b.MovU64(5, v)
		b.Halt()
		p := b.MustBuild()
		it := NewInterp(p)
		it.Run(100)
		if it.Regs[5] != v {
			t.Errorf("MovU64(%#x): reg = %#x", v, it.Regs[5])
		}
	}
}

func TestInterpArithLoop(t *testing.T) {
	// sum = 0; for i = 1..10 { sum += i }
	b := NewBuilder("sum", 64)
	b.MovI(1, 0)  // sum
	b.MovI(2, 1)  // i
	b.MovI(3, 11) // bound
	b.Label("loop")
	b.Op3(isa.ADD, 1, 1, 2)
	b.OpI(isa.ADDI, 2, 2, 1)
	b.Br(isa.BLT, 2, 3, "loop")
	b.Halt()
	it := NewInterp(b.MustBuild())
	it.Run(1000)
	if !it.Halted {
		t.Fatal("should have halted")
	}
	if it.Regs[1] != 55 {
		t.Fatalf("sum = %d, want 55", it.Regs[1])
	}
}

func TestInterpMemory(t *testing.T) {
	b := NewBuilder("mem", 128)
	b.Word(0, 41)
	b.MovU64(2, b.DataBase())
	b.Ld(1, 2, 0)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.St(2, 8, 1)
	b.Ld(3, 2, 8)
	b.Halt()
	it := NewInterp(b.MustBuild())
	it.Run(100)
	if it.Regs[3] != 42 {
		t.Fatalf("r3 = %d, want 42", it.Regs[3])
	}
	// Every word of the segment reads its value: the image's word, the
	// stored word, and zeros elsewhere.
	base, end := it.Prog.DataBase, it.Prog.DataBase+it.Prog.DataSize
	want := map[uint64]uint64{base: 41, base + 8: 42}
	for a := base; a < end; a += 8 {
		if got := it.Load(a); got != want[a] {
			t.Fatalf("mem[%#x] = %d, want %d", a, got, want[a])
		}
	}
}

func TestInterpTranslationException(t *testing.T) {
	b := NewBuilder("fault", 64)
	b.MovI(2, 0) // address 0 is unmapped
	b.Ld(1, 2, 0)
	b.Halt()
	it := NewInterp(b.MustBuild())
	it.Run(100)
	if it.Faulted == nil {
		t.Fatal("expected translation exception")
	}
	if it.Halted {
		t.Fatal("should not have reached HALT")
	}
}

func TestInterpCallRet(t *testing.T) {
	b := NewBuilder("call", 64)
	b.MovI(1, 5)
	b.Call("double")
	b.Halt()
	b.Label("double")
	b.Op3(isa.ADD, 1, 1, 1)
	b.Ret()
	it := NewInterp(b.MustBuild())
	it.Run(100)
	if !it.Halted || it.Regs[1] != 10 {
		t.Fatalf("halted=%v r1=%d, want halted with 10", it.Halted, it.Regs[1])
	}
}

func TestInterpRZeroDiscardsWrites(t *testing.T) {
	b := NewBuilder("zero", 64)
	b.MovI(isa.RZero, 99)
	b.OpI(isa.ADDI, 1, isa.RZero, 7)
	b.Halt()
	it := NewInterp(b.MustBuild())
	it.Run(100)
	if it.Regs[isa.RZero] != 0 {
		t.Fatal("r0 must stay zero")
	}
	if it.Regs[1] != 7 {
		t.Fatalf("r1 = %d, want 7", it.Regs[1])
	}
}

func TestInterpStepBudget(t *testing.T) {
	b := NewBuilder("inf", 64)
	b.Label("spin")
	b.Jmp("spin")
	b.Halt()
	it := NewInterp(b.MustBuild())
	n := it.Run(500)
	if n != 500 {
		t.Fatalf("ran %d steps, want 500", n)
	}
	if it.Halted || it.Faulted != nil {
		t.Fatal("spin loop should neither halt nor fault")
	}
}

package prog

import (
	"slices"
	"testing"

	"faulthound/internal/isa"
)

// memOp is one VisitMemOps callback.
type memOp struct {
	pc          uint64
	store       bool
	addr, value uint64
}

// referenceMemOps is the detector warm-up loop as the pipeline wrote it
// before the stream moved here: interpret n instructions and read each
// load's or store's operands from the registers after it executes.
func referenceMemOps(p *Program, n uint64) []memOp {
	var out []memOp
	it := NewInterp(p)
	for i := uint64(0); i < n; i++ {
		pc := it.PC
		in := p.Code[pc]
		if !it.Step() {
			break
		}
		switch in.Op {
		case isa.LD:
			out = append(out, memOp{pc, false, it.Regs[in.Rs1] + uint64(int64(in.Imm)), 0})
		case isa.ST:
			out = append(out, memOp{pc, true, it.Regs[in.Rs1] + uint64(int64(in.Imm)), it.Regs[in.Rs2]})
		}
	}
	return out
}

func visitAll(p *Program, n uint64) []memOp {
	var out []memOp
	p.VisitMemOps(n, func(pc uint64, store bool, addr, val uint64) {
		out = append(out, memOp{pc, store, addr, val})
	})
	return out
}

// chaseProgram walks a pointer cycle with LD r1, 0(r1), whose reported
// address is the loaded value, and stores a running sum with negative
// offsets; a flipped last pointer leaves the segment, so the
// interpreter faults after about 3*words instructions.
func chaseProgram(words uint64, faults bool) *Program {
	b := NewBuilder("chase", words*8+8)
	for i := uint64(0); i < words; i++ {
		next := b.DataBase() + (i*7+3)%words*8
		if faults && i == words-1 {
			next = 8 // unmapped
		}
		b.Word(i*8, next)
	}
	b.MovU64(1, b.DataBase())
	b.MovU64(2, b.DataBase()+words*8)
	b.Label("loop")
	b.Ld(1, 1, 0)
	b.Op3(isa.ADD, 3, 3, 1)
	b.St(2, 0, 3)
	b.Jmp("loop")
	return b.MustBuild()
}

// TestVisitMemOpsReplay: the first call interprets, the second records,
// and the third replays, and all three visit exactly the operations of
// the reference loop: on random programs that halt before n, on a
// pointer chase whose loads report the loaded value, and on a chase
// that faults before n.
func TestVisitMemOpsReplay(t *testing.T) {
	const n = 50_000
	progs := []*Program{chaseProgram(97, false), chaseProgram(97, true)}
	for seed := uint64(0); seed < 8; seed++ {
		progs = append(progs, Random(DefaultRandomConfig(), seed))
	}
	for _, p := range progs {
		want := referenceMemOps(p, n)
		if len(want) == 0 {
			t.Fatalf("%s: the reference visits nothing: the check is vacuous", p.Name)
		}
		for call := 1; call <= 3; call++ {
			got := visitAll(p, n)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: call %d visits %d operations that differ from the reference's %d", p.Name, call, len(got), len(want))
			}
			st := p.streams.byN[n]
			if recorded := st.buf != nil; recorded != (call >= 2) || st.requests != min(call, 2) {
				t.Fatalf("%s: after call %d: recorded=%v requests=%d", p.Name, call, recorded, st.requests)
			}
		}
	}
	if it := NewInterp(progs[1]); it.Run(n) >= n || it.Faulted == nil {
		t.Fatal("the faulting chase did not fault before n")
	}
	if it := NewInterp(progs[2]); it.Run(n) >= n || !it.Halted {
		t.Fatal("random program 0 did not halt before n")
	}
}

// TestVisitMemOpsKeyedByN: a recording answers only its own
// instruction count.
func TestVisitMemOpsKeyedByN(t *testing.T) {
	p := chaseProgram(31, false)
	for i := 0; i < 2; i++ {
		visitAll(p, 1000)
	}
	if got, want := visitAll(p, 400), referenceMemOps(p, 400); !slices.Equal(got, want) {
		t.Fatalf("n=400 after recording n=1000: %d operations, want %d", len(got), len(want))
	}
	if p.streams.byN[400].buf != nil {
		t.Fatal("the first request for n=400 recorded")
	}
}

package pipeline

import (
	"testing"

	"faulthound/internal/detect"
	"faulthound/internal/isa"
	"faulthound/internal/prog"
)

// TestMSHRSerializesMissBursts: with one MSHR, a burst of independent
// misses takes much longer than with eight.
func TestMSHRSerializesMissBursts(t *testing.T) {
	// Loads at 64KB strides: every access misses all caches.
	b := prog.NewBuilder("missburst", 2<<20)
	b.MovU64(2, b.DataBase())
	b.MovI(3, 0)
	b.MovI(4, 20)
	b.Label("loop")
	b.OpI(isa.SLLI, 7, 3, 16) // i * 64KB
	b.Op3(isa.ADD, 8, 2, 7)
	b.Ld(5, 8, 0)
	b.OpI(isa.ADDI, 3, 3, 1)
	b.Br(isa.BLT, 3, 4, "loop")
	b.Halt()
	p := b.MustBuild()

	run := func(mshrs int) uint64 {
		cfg := DefaultConfig(1)
		cfg.MSHRs = mshrs
		c, err := New(cfg, []*prog.Program{p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(1_000_000)
		if !c.Halted(0) {
			t.Fatal("did not halt")
		}
		return c.Cycle()
	}
	one := run(1)
	eight := run(8)
	if one < eight+eight/2 {
		t.Fatalf("1 MSHR (%d cycles) should be much slower than 8 (%d)", one, eight)
	}
}

// TestForwardingYoungestOlderStore: a load must receive the value of the
// youngest older store to its address, not an earlier one.
func TestForwardingYoungestOlderStore(t *testing.T) {
	b := prog.NewBuilder("fwd", 4096)
	b.MovU64(2, b.DataBase())
	b.MovI(3, 1)
	b.MovI(4, 2)
	b.St(2, 0, 3) // [base] = 1
	b.St(2, 0, 4) // [base] = 2
	b.Ld(5, 2, 0) // must read 2
	b.Halt()
	c, err := New(DefaultConfig(1), []*prog.Program{b.MustBuild()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(100000)
	if got := c.ArchRegs(0)[5]; got != 2 {
		t.Fatalf("forwarded %d, want 2", got)
	}
}

// TestForwardingDifferentAddressesReadMemory: stores to other addresses
// must not forward.
func TestForwardingDifferentAddressesReadMemory(t *testing.T) {
	b := prog.NewBuilder("fwd2", 4096)
	b.Word(0, 77)
	b.MovU64(2, b.DataBase())
	b.MovI(3, 5)
	b.St(2, 8, 3) // adjacent word
	b.Ld(5, 2, 0) // must read memory (77), not the store
	b.Halt()
	c, err := New(DefaultConfig(1), []*prog.Program{b.MustBuild()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(100000)
	if got := c.ArchRegs(0)[5]; got != 77 {
		t.Fatalf("load read %d, want 77", got)
	}
}

// TestFreeListConservation: after a long run with heavy speculation,
// every physical register is either free or architecturally mapped —
// nothing leaks.
func TestFreeListConservation(t *testing.T) {
	p := buildMemLoop(64)
	c, err := New(DefaultConfig(2), []*prog.Program{p, p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2_000_000)
	if !c.AllHalted() {
		t.Fatal("did not halt")
	}
	total := c.cfg.IntPhysRegs + c.cfg.FPPhysRegs
	seen := make(map[physID]int, total)
	for _, pid := range c.rf.freeInt {
		seen[pid]++
	}
	for _, pid := range c.rf.freeFP {
		seen[pid]++
	}
	for pid, n := range seen {
		if n > 1 {
			t.Fatalf("register %d appears %d times in the free lists", pid, n)
		}
	}
	for _, th := range c.threads {
		for _, pid := range th.aRAT {
			if pid == 0 {
				continue
			}
			if seen[pid] > 0 {
				t.Fatalf("architecturally mapped register %d is also free", pid)
			}
			seen[pid]++
		}
	}
	// Every register accounted for exactly once (plus the zero reg).
	if len(seen)+1 != total {
		t.Fatalf("%d of %d registers accounted for; leak or loss", len(seen)+1, total)
	}
}

// TestRollbackPenaltyDelaysFetch: fetch stays idle for the configured
// bubble after a detector rollback.
func TestRollbackPenaltyDelaysFetch(t *testing.T) {
	p := buildMemLoop(64)
	cfg := DefaultConfig(1)
	cfg.RollbackPenalty = 40
	det := &fakeDetector{completeAct: detect.Rollback, fireEvery: 50}
	c, err := New(cfg, []*prog.Program{p}, det)
	if err != nil {
		t.Fatal(err)
	}
	cLow, err := New(DefaultConfig(1), []*prog.Program{p}, det.CloneInto(nil))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3_000_000)
	cLow.Run(3_000_000)
	if !c.Halted(0) || !cLow.Halted(0) {
		t.Fatal("did not halt")
	}
	if c.Cycle() <= cLow.Cycle() {
		t.Fatalf("larger rollback penalty should cost cycles: %d vs %d", c.Cycle(), cLow.Cycle())
	}
}

// TestShadowBackpressureBoundsBacklog: the SRT-iso backlog never grows
// beyond its cap plus one commit burst.
func TestShadowBackpressureBoundsBacklog(t *testing.T) {
	p := buildMemLoop(64)
	cfg := DefaultConfig(1)
	cfg.ShadowRedundancy = 1.0
	c, err := New(cfg, []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxSeen := 0
	for i := 0; i < 200000 && !c.AllHalted(); i++ {
		c.Step()
		if c.shadowPending > maxSeen {
			maxSeen = c.shadowPending
		}
	}
	if maxSeen > shadowBacklogCap+int(c.cfg.CommitWidth) {
		t.Fatalf("shadow backlog reached %d (cap %d)", maxSeen, shadowBacklogCap)
	}
}

// TestAtomicsMatchInterp: AMOADD/SWAP sequences on one core match the
// sequential interpreter exactly, including under speculation.
func TestAtomicsMatchInterp(t *testing.T) {
	b := prog.NewBuilder("atomics", 4096)
	b.Word(0, 100)
	b.MovU64(2, b.DataBase())
	b.MovI(3, 0)
	b.MovI(4, 50)
	b.MovI(5, 3)
	b.Label("loop")
	b.Emit(isa.Inst{Op: isa.AMOADD, Rd: 6, Rs1: 2, Rs2: 5, Imm: 0})
	b.Op3(isa.ADD, 7, 7, 6)
	// A data-dependent branch between atomics exercises speculation.
	b.OpI(isa.ANDI, 8, 6, 1)
	b.Br(isa.BEQ, 8, 0, "even")
	b.Emit(isa.Inst{Op: isa.SWAP, Rd: 9, Rs1: 2, Rs2: 7, Imm: 8})
	b.Label("even")
	b.OpI(isa.ADDI, 3, 3, 1)
	b.Br(isa.BLT, 3, 4, "loop")
	b.Halt()
	p := b.MustBuild()

	c, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(1_000_000)
	if !c.Halted(0) {
		t.Fatalf("did not halt (committed %d)", c.Committed(0))
	}
	it := prog.NewInterp(p)
	it.Run(1_000_000)
	if c.ArchRegs(0) != it.Regs {
		t.Fatal("atomic execution diverges from the interpreter")
	}
	sameMemory(t, c, it, "")
}

// TestAtomicUnderDetector: atomics stay correct when FaultHound-style
// scripted actions fire around them.
func TestAtomicUnderDetector(t *testing.T) {
	b := prog.NewBuilder("atomdet", 4096)
	b.MovU64(2, b.DataBase())
	b.MovI(3, 0)
	b.MovI(4, 200)
	b.MovI(5, 1)
	b.Label("loop")
	b.Emit(isa.Inst{Op: isa.AMOADD, Rd: 6, Rs1: 2, Rs2: 5, Imm: 0})
	b.OpI(isa.SLLI, 7, 3, 3)
	b.OpI(isa.ANDI, 7, 7, 511)
	b.Op3(isa.ADD, 8, 2, 7)
	b.St(8, 8, 6)
	b.Ld(9, 8, 8)
	b.OpI(isa.ADDI, 3, 3, 1)
	b.Br(isa.BLT, 3, 4, "loop")
	b.Halt()
	p := b.MustBuild()

	det := &fakeDetector{completeAct: detect.Rollback, fireEvery: 23}
	c, err := New(DefaultConfig(1), []*prog.Program{p}, det)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2_000_000)
	if !c.Halted(0) {
		t.Fatalf("did not halt (committed %d)", c.Committed(0))
	}
	it := prog.NewInterp(p)
	it.Run(1_000_000)
	// The atomic counter must equal the iteration count exactly — a
	// rollback double-applying an AMOADD would break this.
	got, _ := c.memory.Read(p.DataBase)
	if got != it.Load(p.DataBase) {
		t.Fatalf("atomic counter %d, interp %d (rollback double-apply?)", got, it.Load(p.DataBase))
	}
	if c.ArchRegs(0) != it.Regs {
		t.Fatal("registers diverge")
	}
	sameMemory(t, c, it, "")
}

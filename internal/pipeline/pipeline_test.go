package pipeline

import (
	"testing"

	"faulthound/internal/isa"
	"faulthound/internal/prog"
	"faulthound/internal/stats"
)

// buildSum builds: sum = 0; for i = 1..n { sum += i }; halt. Result in r1.
func buildSum(n int32) *prog.Program {
	b := prog.NewBuilder("sum", 64)
	b.MovI(1, 0)
	b.MovI(2, 1)
	b.MovI(3, n+1)
	b.Label("loop")
	b.Op3(isa.ADD, 1, 1, 2)
	b.OpI(isa.ADDI, 2, 2, 1)
	b.Br(isa.BLT, 2, 3, "loop")
	b.Halt()
	return b.MustBuild()
}

// buildMemLoop builds a loop that walks an array, loading, transforming
// and storing values, exercising loads, stores, and forwarding.
func buildMemLoop(words int32) *prog.Program {
	b := prog.NewBuilder("memloop", uint64(words+8)*8)
	for i := int32(0); i < words; i++ {
		b.Word(uint64(i)*8, uint64(i)*3+1)
	}
	b.MovU64(2, b.DataBase()) // base
	b.MovI(3, 0)              // i
	b.MovI(4, int32(words))   // bound
	b.MovI(6, 0)              // checksum
	b.Label("loop")
	b.OpI(isa.SLLI, 5, 3, 3) // offset
	b.Op3(isa.ADD, 5, 2, 5)  // addr
	b.Ld(7, 5, 0)
	b.OpI(isa.ADDI, 7, 7, 10)
	b.St(5, 0, 7) // a[i] += 10
	b.Ld(8, 5, 0) // reload (forwarding or memory)
	b.Op3(isa.ADD, 6, 6, 8)
	b.OpI(isa.ADDI, 3, 3, 1)
	b.Br(isa.BLT, 3, 4, "loop")
	b.Halt()
	return b.MustBuild()
}

// buildCallProg exercises JAL/JALR and the RAS.
func buildCallProg() *prog.Program {
	b := prog.NewBuilder("calls", 64)
	b.MovI(1, 0)
	b.MovI(2, 20)
	b.MovI(3, 0) // i
	b.Label("loop")
	b.Call("inc")
	b.OpI(isa.ADDI, 3, 3, 1)
	b.Br(isa.BLT, 3, 2, "loop")
	b.Halt()
	b.Label("inc")
	b.OpI(isa.ADDI, 1, 1, 7)
	b.Ret()
	return b.MustBuild()
}

// buildFPProg exercises the FP units and conversions.
func buildFPProg() *prog.Program {
	b := prog.NewBuilder("fp", 64)
	b.MovI(1, 5)
	b.Emit(isa.Inst{Op: isa.I2F, Rd: isa.F(0), Rs1: 1})
	b.MovI(2, 3)
	b.Emit(isa.Inst{Op: isa.I2F, Rd: isa.F(1), Rs1: 2})
	b.Op3(isa.FMUL, isa.F(2), isa.F(0), isa.F(1)) // 15.0
	b.Op3(isa.FADD, isa.F(2), isa.F(2), isa.F(0)) // 20.0
	b.Emit(isa.Inst{Op: isa.F2I, Rd: 3, Rs1: isa.F(2)})
	b.Halt()
	return b.MustBuild()
}

// runBoth runs p on the pipeline (1 thread) and the interpreter and
// fails if architectural register state differs after halt.
func runBoth(t *testing.T, p *prog.Program, maxCycles uint64) (*Core, *prog.Interp) {
	t.Helper()
	cfg := DefaultConfig(1)
	core, err := New(cfg, []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	core.Run(maxCycles)
	if !core.Halted(0) {
		t.Fatalf("pipeline did not halt in %d cycles (committed %d)", maxCycles, core.Committed(0))
	}
	it := prog.NewInterp(p)
	it.Run(10_000_000)
	if !it.Halted {
		t.Fatal("interpreter did not halt")
	}
	pregs := core.ArchRegs(0)
	for r := 0; r < isa.NumArchRegs; r++ {
		if pregs[r] != it.Regs[r] {
			t.Errorf("reg %s: pipeline %#x, interp %#x", isa.Reg(r), pregs[r], it.Regs[r])
		}
	}
	if core.Committed(0) != it.Steps {
		t.Errorf("committed %d, interp steps %d", core.Committed(0), it.Steps)
	}
	return core, it
}

func TestPipelineMatchesInterpArithmetic(t *testing.T) {
	core, _ := runBoth(t, buildSum(100), 100000)
	regs := core.ArchRegs(0)
	if regs[1] != 5050 {
		t.Fatalf("sum = %d, want 5050", regs[1])
	}
}

func TestPipelineMatchesInterpMemory(t *testing.T) {
	core, it := runBoth(t, buildMemLoop(40), 200000)
	regs := core.ArchRegs(0)
	if regs[6] != it.Regs[6] || regs[6] == 0 {
		t.Fatalf("checksum = %d, interp %d", regs[6], it.Regs[6])
	}
	// Memory writes must match the interpreter's.
	sameMemory(t, core, it, "")
}

// sameMemory fails t unless every word of the interpreted program's
// data segment reads the same in c's memory as in the interpreter's:
// a store either side made and the other did not shows as a mismatch.
func sameMemory(t *testing.T, c *Core, it *prog.Interp, prefix string) {
	t.Helper()
	p := it.Prog
	for a := p.DataBase; a+8 <= p.DataBase+p.DataSize; a += 8 {
		got, err := c.memory.Read(a)
		if want := it.Load(a); err != nil || got != want {
			t.Fatalf("%smem[%#x] = %d, interp %d (%v)", prefix, a, got, want, err)
		}
	}
}

func TestPipelineMatchesInterpCalls(t *testing.T) {
	core, _ := runBoth(t, buildCallProg(), 100000)
	if regs := core.ArchRegs(0); regs[1] != 140 {
		t.Fatalf("r1 = %d, want 140", regs[1])
	}
}

func TestPipelineMatchesInterpFP(t *testing.T) {
	core, _ := runBoth(t, buildFPProg(), 10000)
	if regs := core.ArchRegs(0); regs[3] != 20 {
		t.Fatalf("r3 = %d, want 20", regs[3])
	}
}

func TestPipelineRandomProgramsMatchInterp(t *testing.T) {
	// Pseudo-random straight-line programs over ALU/mem ops: a strong
	// differential test of rename, forwarding, and commit ordering.
	rng := stats.NewRNG(1234)
	for trial := 0; trial < 20; trial++ {
		b := prog.NewBuilder("rand", 1024)
		b.MovU64(2, b.DataBase()) // r2 reserved as the memory base
		reg := func() isa.Reg { return isa.Reg(3 + rng.Intn(8)) }
		for i := 0; i < 120; i++ {
			switch rng.Intn(6) {
			case 0:
				b.MovI(reg(), int32(rng.Intn(1000)))
			case 1:
				b.Op3(isa.ADD, reg(), reg(), reg())
			case 2:
				b.Op3(isa.MUL, reg(), reg(), reg())
			case 3:
				b.OpI(isa.XORI, reg(), reg(), int32(rng.Intn(255)))
			case 4:
				b.St(2, int32(rng.Intn(64))*8, reg())
			case 5:
				b.Ld(reg(), 2, int32(rng.Intn(64))*8)
			}
		}
		b.Halt()
		runBoth(t, b.MustBuild(), 100000)
	}
}

func TestSMTTwoThreadsBothProgress(t *testing.T) {
	cfg := DefaultConfig(2)
	// Per-thread copies with disjoint data segments are not needed for
	// buildSum (no memory traffic); same program twice is the paper's
	// SPEC setup.
	p := buildSum(200)
	core, err := New(cfg, []*prog.Program{p, p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	core.Run(1_000_000)
	for tid := 0; tid < 2; tid++ {
		if !core.Halted(tid) {
			t.Fatalf("thread %d did not halt", tid)
		}
		if regs := core.ArchRegs(tid); regs[1] != 20100 {
			t.Fatalf("thread %d sum = %d, want 20100", tid, regs[1])
		}
	}
}

func TestExceptionOnUnmappedLoad(t *testing.T) {
	b := prog.NewBuilder("fault", 64)
	b.MovI(2, 64) // unmapped low address
	b.Ld(1, 2, 0)
	b.Halt()
	core, err := New(DefaultConfig(1), []*prog.Program{b.MustBuild()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	core.Run(10000)
	exc, msg := core.Excepted(0)
	if !exc {
		t.Fatal("expected a translation exception")
	}
	if msg == "" {
		t.Fatal("expected an exception message")
	}
	if core.Stats().Exceptions != 1 {
		t.Fatalf("exception count = %d", core.Stats().Exceptions)
	}
}

func TestBranchMispredictionRecovery(t *testing.T) {
	// A data-dependent unpredictable branch pattern still produces
	// correct architectural results.
	b := prog.NewBuilder("mispredict", 1024)
	// Fill memory with a pseudo-random pattern the branch depends on.
	rng := stats.NewRNG(7)
	for i := uint64(0); i < 64; i++ {
		b.Word(i*8, rng.Uint64()%2)
	}
	b.MovU64(2, b.DataBase())
	b.MovI(3, 0)  // i
	b.MovI(4, 64) // bound
	b.MovI(5, 0)  // count of ones
	b.Label("loop")
	b.OpI(isa.SLLI, 6, 3, 3)
	b.Op3(isa.ADD, 6, 2, 6)
	b.Ld(7, 6, 0)
	b.Br(isa.BEQ, 7, 0, "skip")
	b.OpI(isa.ADDI, 5, 5, 1)
	b.Label("skip")
	b.OpI(isa.ADDI, 3, 3, 1)
	b.Br(isa.BLT, 3, 4, "loop")
	b.Halt()
	p := b.MustBuild()
	core, _ := runBoth(t, p, 1_000_000)
	if core.Stats().BranchMispredicts == 0 {
		t.Fatal("expected some mispredictions on random data")
	}
}

func TestDelayBufferHoldsCompleted(t *testing.T) {
	core, _ := runBoth(t, buildSum(500), 1_000_000)
	s := core.Stats()
	if s.DelayBufEvictions == 0 && s.DelayBufFlushes == 0 {
		t.Fatal("delay buffer should cycle completed instructions")
	}
}

func TestCloneProducesIdenticalFuture(t *testing.T) {
	p := buildMemLoop(64)
	mk := func() *Core {
		core, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return core
	}
	a := mk()
	for i := 0; i < 500; i++ {
		a.Step()
	}
	b := a.Clone()
	// Advance both identically; their state must stay identical.
	for i := 0; i < 2000; i++ {
		a.Step()
		b.Step()
	}
	if a.Cycle() != b.Cycle() || a.Committed(0) != b.Committed(0) {
		t.Fatalf("divergence: cycles %d/%d commits %d/%d", a.Cycle(), b.Cycle(), a.Committed(0), b.Committed(0))
	}
	if a.ArchHash(0) != b.ArchHash(0) {
		t.Fatal("architectural state diverged between original and clone")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := buildSum(1000)
	core, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		core.Step()
	}
	before := core.ArchHash(0)
	cl := core.Clone()
	cl.Run(100000)
	if core.ArchHash(0) != before {
		t.Fatal("running the clone mutated the original")
	}
}

func TestDeterminism(t *testing.T) {
	p := buildMemLoop(64)
	run := func() (uint64, uint64) {
		core, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		core.Run(1_000_000)
		return core.Cycle(), core.ArchHash(0)
	}
	c1, h1 := run()
	c2, h2 := run()
	if c1 != c2 || h1 != h2 {
		t.Fatalf("nondeterministic: cycles %d/%d hash %#x/%#x", c1, c2, h1, h2)
	}
}

func TestRunUntilCommits(t *testing.T) {
	p := buildSum(1000)
	core, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !core.RunUntilCommits(0, 100, 1_000_000) {
		t.Fatal("did not reach 100 commits")
	}
	got := core.Committed(0)
	if got < 100 || got > 100+uint64(core.Config().CommitWidth) {
		t.Fatalf("committed %d, want ~100", got)
	}
}

func TestShadowRedundancyConsumesBandwidth(t *testing.T) {
	p := buildSum(2000)
	base, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base.Run(2_000_000)

	cfg := DefaultConfig(1)
	cfg.ShadowRedundancy = 1.0
	srt, err := New(cfg, []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srt.Run(2_000_000)

	if srt.Stats().ShadowOps == 0 {
		t.Fatal("no shadow ops executed")
	}
	// Shadow copies must roughly match committed instructions.
	ratio := float64(srt.Stats().ShadowOps) / float64(srt.Stats().Committed)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("shadow ratio = %v, want ~1.0", ratio)
	}
	// Redundancy can only slow the core down.
	if srt.Cycle() < base.Cycle() {
		t.Fatalf("SRT run faster than baseline: %d < %d", srt.Cycle(), base.Cycle())
	}
}

func TestFlipRegisterBitPropagates(t *testing.T) {
	// Flip a bit in the architectural mapping of r1 mid-run and verify
	// the final sum changes (the fault propagated to consumers).
	p := buildSum(100)
	clean, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean.Run(1_000_000)
	want := clean.ArchRegs(0)[1]

	faulty, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulty.RunUntilCommits(0, 50, 1_000_000)
	// Flip a bit of the loop bound's physical register (r3 is written
	// once and read every iteration, so the flip must change the sum).
	pr := faulty.threads[0].aRAT[3]
	faulty.FlipRegisterBit(uint16(pr), 4)
	faulty.Run(1_000_000)
	if got := faulty.ArchRegs(0)[1]; got == want {
		t.Fatalf("fault was silently lost: sum still %d", got)
	}
}

func TestFlipRATBitChangesMapping(t *testing.T) {
	p := buildSum(100)
	core, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	core.RunUntilCommits(0, 20, 1_000_000)
	before := core.threads[0].rat[1]
	if !core.FlipRATBit(0, 1, 0) {
		t.Fatal("flip failed")
	}
	after := core.threads[0].rat[1]
	if before == after {
		t.Fatal("RAT entry unchanged")
	}
	if int(after) >= core.cfg.IntPhysRegs {
		t.Fatalf("corrupted tag %d escaped the integer class", after)
	}
}

func TestFlipRATBitRejectsZeroReg(t *testing.T) {
	p := buildSum(10)
	core, _ := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if core.FlipRATBit(0, isa.RZero, 0) {
		t.Fatal("must not inject into r0's mapping")
	}
}

func TestLSQSitesAndFlip(t *testing.T) {
	p := buildMemLoop(64)
	core, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Step until some LSQ site exists.
	var sites []LSQSite
	for i := 0; i < 20000 && len(sites) == 0; i++ {
		core.Step()
		sites = core.LSQSites(nil)
	}
	if len(sites) == 0 {
		t.Fatal("no LSQ sites found")
	}
	if !core.FlipLSQBit(sites[0], LSQAddr, 2) {
		t.Fatal("flip failed")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.IntPhysRegs = 40 // too few for 2 threads
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := New(cfg, nil, nil); err == nil {
		t.Fatal("New should reject invalid config")
	}
	cfg = DefaultConfig(1)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsBasics(t *testing.T) {
	core, _ := runBoth(t, buildMemLoop(32), 1_000_000)
	s := core.Stats()
	if s.Loads == 0 || s.Stores == 0 || s.Branches == 0 {
		t.Fatalf("class counters: %+v", s)
	}
	if s.IPC() <= 0 || s.CPI() <= 0 {
		t.Fatal("IPC/CPI should be positive")
	}
	ms := core.MemStats()
	if ms.L1DAccesses == 0 || ms.L1IAccesses == 0 {
		t.Fatal("cache counters empty")
	}
}

package pipeline

import (
	"testing"

	"faulthound/internal/detect"
	"faulthound/internal/isa"
	"faulthound/internal/prog"
	"faulthound/internal/stats"
)

// fakeDetector scripts detector actions for mechanism tests.
type fakeDetector struct {
	completeAct detect.Action
	commitAct   detect.Action
	fireEvery   uint64 // act on every n-th check (0 = never)
	checks      uint64
	learnOnly   bool
	stats       detect.Stats
}

func (f *fakeDetector) Name() string { return "fake" }

func (f *fakeDetector) OnComplete(detect.Event) detect.Action {
	f.checks++
	f.stats.Checks++
	if f.learnOnly || f.fireEvery == 0 || f.checks%f.fireEvery != 0 {
		return detect.None
	}
	switch f.completeAct {
	case detect.Replay:
		f.stats.Replays++
	case detect.Rollback:
		f.stats.Rollbacks++
	}
	return f.completeAct
}

func (f *fakeDetector) OnCommit(detect.Event) detect.Action {
	if f.learnOnly || f.fireEvery == 0 {
		return detect.None
	}
	if f.commitAct == detect.Singleton {
		f.stats.Singletons++
	}
	return f.commitAct
}

func (f *fakeDetector) CommitMutates() bool  { return false }
func (f *fakeDetector) SetLearnOnly(on bool) { f.learnOnly = on }
func (f *fakeDetector) Stats() detect.Stats  { return f.stats }
func (f *fakeDetector) CloneInto(dst detect.Detector) detect.Detector {
	c, ok := dst.(*fakeDetector)
	if !ok || c == nil {
		c = &fakeDetector{}
	}
	*c = *f
	return c
}

// TestScriptedReplayTransparency drives replays constantly through a
// scripted detector: architectural results must still match the
// interpreter exactly.
func TestScriptedReplayTransparency(t *testing.T) {
	p := buildMemLoop(48)
	det := &fakeDetector{completeAct: detect.Replay, fireEvery: 5}
	c, err := New(DefaultConfig(1), []*prog.Program{p}, det)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3_000_000)
	if !c.Halted(0) {
		t.Fatalf("did not halt (committed %d)", c.Committed(0))
	}
	if c.Stats().ReplayTriggers == 0 {
		t.Fatal("no replays ran")
	}
	it := prog.NewInterp(p)
	it.Run(10_000_000)
	regs := c.ArchRegs(0)
	for r := 0; r < isa.NumArchRegs; r++ {
		if regs[r] != it.Regs[r] {
			t.Fatalf("reg %d: %#x vs interp %#x", r, regs[r], it.Regs[r])
		}
	}
}

// TestScriptedRollbackTransparency drives full rollbacks through a
// scripted detector: results must match and progress must be guaranteed
// (the deemed-final prefix).
func TestScriptedRollbackTransparency(t *testing.T) {
	p := buildMemLoop(48)
	det := &fakeDetector{completeAct: detect.Rollback, fireEvery: 17}
	c, err := New(DefaultConfig(1), []*prog.Program{p}, det)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5_000_000)
	if !c.Halted(0) {
		t.Fatalf("rollback storm prevented completion (committed %d, rollbacks %d)",
			c.Committed(0), c.Stats().Rollbacks)
	}
	if c.Stats().Rollbacks == 0 {
		t.Fatal("no rollbacks ran")
	}
	it := prog.NewInterp(p)
	it.Run(10_000_000)
	if c.ArchRegs(0) != it.Regs {
		t.Fatal("architectural divergence under rollbacks")
	}
}

// TestScriptedSingletonTransparency drives commit-time singleton
// re-executions; fault-free they must never declare and never perturb
// state.
func TestScriptedSingletonTransparency(t *testing.T) {
	p := buildMemLoop(48)
	det := &fakeDetector{commitAct: detect.Singleton, fireEvery: 1}
	c, err := New(DefaultConfig(1), []*prog.Program{p}, det)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3_000_000)
	if !c.Halted(0) {
		t.Fatal("did not halt")
	}
	s := c.Stats()
	if s.Singletons == 0 {
		t.Fatal("no singleton re-executions ran")
	}
	if s.FaultsDeclared != 0 {
		t.Fatalf("fault-free run declared %d faults", s.FaultsDeclared)
	}
	it := prog.NewInterp(p)
	it.Run(10_000_000)
	if c.ArchRegs(0) != it.Regs {
		t.Fatal("architectural divergence under singletons")
	}
}

// TestSingletonCorrectsLSQFault verifies the Section-3.5 correction: a
// store's LSQ value flipped after execute is repaired from register-file
// state before the memory write, and the mismatch is declared.
func TestSingletonCorrectsLSQFault(t *testing.T) {
	p := buildMemLoop(64)
	mk := func() *Core {
		det := &fakeDetector{commitAct: detect.Singleton, fireEvery: 1}
		c, err := New(DefaultConfig(1), []*prog.Program{p}, det)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	golden := mk()
	golden.Run(3_000_000)
	want := golden.ArchHash(0)

	f := mk()
	f.RunUntilCommits(0, 500, 1_000_000)
	// Find a completed store in the LSQ and corrupt its value copy.
	deadline := f.Cycle() + 50000
	var flipped bool
	for f.Cycle() < deadline && !flipped {
		f.Step()
		for _, s := range f.LSQSites(nil) {
			if s.IsStore {
				f.FlipLSQBit(s, LSQData, 13)
				flipped = true
				break
			}
		}
	}
	if !flipped {
		t.Fatal("no LSQ store site appeared")
	}
	f.Run(3_000_000)
	if f.Stats().FaultsDeclared == 0 {
		t.Fatal("LSQ fault was not declared")
	}
	if f.ArchHash(0) != want {
		t.Fatal("LSQ fault was not corrected before the memory write")
	}
}

// TestWarmDetectorTrainsFilters: after WarmDetector, the detector has
// seen checks without the pipeline running.
func TestWarmDetectorTrainsFilters(t *testing.T) {
	p := buildMemLoop(64)
	det := &fakeDetector{}
	c, err := New(DefaultConfig(1), []*prog.Program{p}, det)
	if err != nil {
		t.Fatal(err)
	}
	c.WarmDetector(5000)
	if det.stats.Checks == 0 {
		t.Fatal("WarmDetector produced no checks")
	}
	if c.Cycle() != 0 || c.CommittedTotal() != 0 {
		t.Fatal("WarmDetector must not advance the pipeline")
	}
}

// TestLiveArchRegsExcludesUnwritten: registers never written by the
// program read as zero in the tandem view even if their physical
// registers hold garbage.
func TestLiveArchRegsExcludesUnwritten(t *testing.T) {
	p := buildSum(50)
	c, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntilCommits(0, 20, 1_000_000)
	// Corrupt the physical register backing the never-written r20.
	pr := uint16(c.threads[0].aRAT[20])
	h0 := c.ArchHash(0)
	c.FlipRegisterBit(pr, 7)
	if c.ArchHash(0) != h0 {
		t.Fatal("flip in a never-written register changed the live hash")
	}
	if c.LiveArchRegs(0)[20] != 0 {
		t.Fatal("unwritten register should read as zero in the live view")
	}
	// But a written register's flip must show.
	pr1 := uint16(c.threads[0].aRAT[1])
	c.FlipRegisterBit(pr1, 7)
	if c.ArchHash(0) == h0 {
		t.Fatal("flip in a written register must change the live hash")
	}
}

// TestSMTFaultIsolation: a fault in thread 1's register must not change
// thread 0's architectural results.
func TestSMTFaultIsolation(t *testing.T) {
	p := buildSum(300)
	c, err := New(DefaultConfig(2), []*prog.Program{p, p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntilCommits(1, 100, 1_000_000)
	// Flip the loop bound (r3): written once, read every iteration.
	pr := uint16(c.threads[1].aRAT[3])
	c.FlipRegisterBit(pr, 3)
	c.Run(2_000_000)
	if got := c.ArchRegs(0)[1]; got != 45150 {
		t.Fatalf("thread 0 sum corrupted by thread 1 fault: %d", got)
	}
	if got := c.ArchRegs(1)[1]; got == 45150 {
		t.Fatal("thread 1 fault was silently lost")
	}
}

// TestRandomProgramsUnderScriptedActions is a randomized stress test:
// arbitrary straight-line programs must stay architecturally exact under
// scripted replay+singleton activity.
func TestRandomProgramsUnderScriptedActions(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 8; trial++ {
		b := prog.NewBuilder("rand", 1024)
		b.MovU64(2, b.DataBase())
		reg := func() isa.Reg { return isa.Reg(3 + rng.Intn(8)) }
		for i := 0; i < 150; i++ {
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
		p := b.MustBuild()
		det := &fakeDetector{completeAct: detect.Replay, commitAct: detect.Singleton, fireEvery: 3}
		c, err := New(DefaultConfig(1), []*prog.Program{p}, det)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(1_000_000)
		it := prog.NewInterp(p)
		it.Run(1_000_000)
		if c.ArchRegs(0) != it.Regs {
			t.Fatalf("trial %d diverged", trial)
		}
	}
}

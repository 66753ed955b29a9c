package core

import (
	"testing"

	"faulthound/internal/detect"
	"faulthound/internal/isa"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
)

func ev(kind detect.Kind, pc, v uint64) detect.Event {
	return detect.Event{Kind: kind, PC: pc, Value: v}
}

func TestStableStreamNeverActs(t *testing.T) {
	f := New(DefaultConfig())
	for i := 0; i < 100; i++ {
		if act := f.OnComplete(ev(detect.LoadAddr, 10, 0x1000)); act != detect.None {
			t.Fatalf("stable stream acted: %v", act)
		}
	}
}

func TestFreshOutlierReplays(t *testing.T) {
	f := New(BackendConfig())
	for i := 0; i < 10; i++ {
		f.OnComplete(ev(detect.LoadAddr, 10, 0x1000))
	}
	// A flip in a long-unchanging bit: replay.
	if act := f.OnComplete(ev(detect.LoadAddr, 10, 0x1000^(1<<40))); act != detect.Replay {
		t.Fatalf("outlier should replay: %v", act)
	}
}

func TestValueIndexedClusteringSharesLearning(t *testing.T) {
	// Unlike the PC-indexed tables, two different PCs producing the
	// same value stream share one filter: the second PC never triggers.
	f := New(BackendConfig())
	f.OnComplete(ev(detect.LoadAddr, 1, 0x1000))
	if act := f.OnComplete(ev(detect.LoadAddr, 2, 0x1000)); act != detect.None {
		t.Fatalf("clustering failed: %v", act)
	}
}

func TestSeparateAddrAndValueTCAMs(t *testing.T) {
	f := New(DefaultConfig())
	f.OnComplete(ev(detect.StoreAddr, 10, 0x10000000))
	// A small store value is far from the address's neighborhood; with
	// a shared TCAM it would trigger or pollute. Separate TCAMs learn
	// independently (first touch installs, no trigger).
	if act := f.OnComplete(ev(detect.StoreValue, 10, 3)); act != detect.None {
		t.Fatalf("value TCAM polluted: %v", act)
	}
	if act := f.OnComplete(ev(detect.StoreValue, 10, 3)); act != detect.None {
		t.Fatalf("value TCAM should know 3: %v", act)
	}
}

func TestCommitTriggerIsSingleton(t *testing.T) {
	f := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		f.OnComplete(ev(detect.StoreValue, 10, 0x40))
	}
	if act := f.OnCommit(ev(detect.StoreValue, 10, 0x40)); act != detect.None {
		t.Fatalf("matching commit check acted: %v", act)
	}
	if act := f.OnCommit(ev(detect.StoreValue, 10, 0x40^(1<<50))); act != detect.Singleton {
		t.Fatalf("commit outlier should be singleton: %v", act)
	}
}

func TestNoLSQDisablesCommitChecks(t *testing.T) {
	f := New(NoLSQConfig())
	f.OnComplete(ev(detect.StoreValue, 10, 0x40))
	if act := f.OnCommit(ev(detect.StoreValue, 10, 0xffffffffffff)); act != detect.None {
		t.Fatalf("noLSQ variant answered a commit check: %v", act)
	}
}

func TestFullRollbackVariant(t *testing.T) {
	f := New(FullRollbackConfig())
	f.OnComplete(ev(detect.LoadAddr, 10, 0x1000))
	if act := f.OnComplete(ev(detect.LoadAddr, 10, 0x1000^(1<<40))); act != detect.Rollback {
		t.Fatalf("full-rollback variant should roll back: %v", act)
	}
}

func TestBackendOnlyNeverRollsBack(t *testing.T) {
	f := New(BackendConfig())
	// Hammer with far-apart values; whatever triggers must never be a
	// rollback.
	for i := uint64(0); i < 200; i++ {
		act := f.OnComplete(ev(detect.LoadAddr, i, i*0x123456789))
		if act == detect.Rollback {
			t.Fatal("backend-only variant rolled back")
		}
	}
}

func TestRenameFaultPatternRollsBack(t *testing.T) {
	// Full FaultHound (second-level filter off, to isolate the squash
	// machines): establish two stable neighborhoods, then present a
	// trigger whose closest filter has been quiet — the squash machine
	// escalates to rollback (likely rename fault).
	cfg := DefaultConfig()
	cfg.Addr.SecondLevel = false
	cfg.Value.SecondLevel = false
	f := New(cfg)
	for i := 0; i < 20; i++ {
		f.OnComplete(ev(detect.LoadAddr, 1, 0x10000000))
	}
	f.OnComplete(ev(detect.LoadAddr, 2, 0xffffffff00000000))
	for i := 0; i < 20; i++ {
		f.OnComplete(ev(detect.LoadAddr, 2, 0xffffffff00000000))
	}
	// The unintended value is far from every neighborhood
	// (replacement-level): a true identity change.
	act := f.OnComplete(ev(detect.LoadAddr, 1, 0x00ff00ff00ff00ff))
	if act != detect.Rollback {
		t.Fatalf("identity-changing trigger should roll back: %v", act)
	}
}

func TestNoClusterVariantUsesTables(t *testing.T) {
	f := New(NoClusterNo2LevelConfig())
	f.OnComplete(ev(detect.LoadAddr, 1, 0x1000))
	f.OnComplete(ev(detect.LoadAddr, 2, 0x1000))
	// PC-spreading: PC 2's entry learned independently, so a change at
	// PC 2 triggers even though PC 1 saw the same stream.
	act := f.OnComplete(ev(detect.LoadAddr, 2, 0x1008))
	if act != detect.Replay {
		t.Fatalf("nocluster variant should replay per-PC: %v", act)
	}
	if s := f.Stats(); s.TableReads == 0 || s.TCAMSearches != 0 {
		t.Fatalf("wrong filter bank used: %+v", s)
	}
}

func TestLearnOnlyIgnoresTriggers(t *testing.T) {
	f := New(DefaultConfig())
	f.OnComplete(ev(detect.LoadAddr, 1, 0x1000))
	f.SetLearnOnly(true)
	if act := f.OnComplete(ev(detect.LoadAddr, 1, 0xffffffffffffffff)); act != detect.None {
		t.Fatalf("learn-only acted: %v", act)
	}
	f.SetLearnOnly(false)
}

func TestStatsConservation(t *testing.T) {
	f := New(DefaultConfig())
	for i := uint64(0); i < 500; i++ {
		f.OnComplete(ev(detect.LoadAddr, i%7, (i%5)*0x100000+0x10000000))
	}
	s := f.Stats()
	if s.Triggers != s.Suppressed+s.Replays+s.Rollbacks+s.Singletons {
		t.Fatalf("trigger accounting broken: %+v", s)
	}
	if s.TCAMSearches == 0 {
		t.Fatal("TCAM searches not counted")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := New(DefaultConfig())
	f.OnComplete(ev(detect.LoadAddr, 1, 100))
	c := f.CloneInto(nil)
	c.OnComplete(ev(detect.LoadAddr, 1, 0xffffffffffffffff))
	if f.Stats().Checks != 1 {
		t.Fatal("clone leaked into original")
	}
	if act := f.OnComplete(ev(detect.LoadAddr, 1, 100)); act != detect.None {
		t.Fatal("original filters disturbed")
	}
}

// --- Integration with the pipeline ---

// buildWorkload builds a program with memory traffic and data-dependent
// branches, enough to exercise replays.
func buildWorkload(words int32) *prog.Program {
	b := prog.NewBuilder("wl", uint64(words+8)*8)
	for i := int32(0); i < words; i++ {
		b.Word(uint64(i)*8, uint64(i*i)%251)
	}
	b.MovU64(2, b.DataBase())
	b.MovI(3, 0)
	b.MovI(4, int32(words))
	b.MovI(6, 0)
	b.Label("loop")
	b.OpI(isa.SLLI, 5, 3, 3)
	b.Op3(isa.ADD, 5, 2, 5)
	b.Ld(7, 5, 0)
	b.Op3(isa.ADD, 6, 6, 7)
	b.OpI(isa.XORI, 7, 7, 0x55)
	b.St(5, 0, 7)
	b.OpI(isa.ADDI, 3, 3, 1)
	b.Br(isa.BLT, 3, 4, "loop")
	b.Halt()
	return b.MustBuild()
}

// TestFaultFreeTransparency is the central integration invariant: with
// FaultHound attached and no faults injected, false-positive replays,
// rollbacks, and singleton re-executions must leave the architectural
// results identical to the sequential interpreter's.
func TestFaultFreeTransparency(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(), BackendConfig(), No2LevelConfig(),
		NoClusterNo2LevelConfig(), FullRollbackConfig(), NoLSQConfig(),
	} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			p := buildWorkload(128)
			pcfg := pipeline.DefaultConfig(1)
			c, err := pipeline.New(pcfg, []*prog.Program{p}, New(cfg))
			if err != nil {
				t.Fatal(err)
			}
			c.Run(2_000_000)
			if !c.Halted(0) {
				t.Fatal("did not halt")
			}
			if exc, msg := c.Excepted(0); exc {
				t.Fatalf("spurious exception: %s", msg)
			}
			it := prog.NewInterp(p)
			it.Run(10_000_000)
			regs := c.ArchRegs(0)
			for r := 0; r < isa.NumArchRegs; r++ {
				if regs[r] != it.Regs[r] {
					t.Errorf("reg %s: pipeline %#x, interp %#x", isa.Reg(r), regs[r], it.Regs[r])
				}
			}
			if c.Committed(0) != it.Steps {
				t.Errorf("committed %d, interp %d", c.Committed(0), it.Steps)
			}
		})
	}
}

// TestReplaysActuallyHappen checks that the integration produces replay
// activity on a value-noisy workload without corrupting state.
func TestReplaysActuallyHappen(t *testing.T) {
	p := buildWorkload(256)
	c, err := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{p}, New(BackendConfig()))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3_000_000)
	ds := c.Detector().Stats()
	if ds.Checks == 0 {
		t.Fatal("no detector checks ran")
	}
	ps := c.Stats()
	if ds.Replays > 0 && ps.ReplayTriggers == 0 {
		t.Fatal("detector requested replays but the pipeline ran none")
	}
}

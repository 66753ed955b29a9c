package pipeline

import (
	"fmt"
	"testing"

	"faulthound/internal/detect"
	"faulthound/internal/isa"
	"faulthound/internal/prog"
)

// TestFuzzPipelineVsInterp is the heavyweight differential test:
// structured random programs — nested loops, data-dependent branches,
// memory traffic, calls — must produce identical architectural state on
// the out-of-order pipeline and the sequential interpreter.
func TestFuzzPipelineVsInterp(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		p := prog.Random(prog.DefaultRandomConfig(), seed)
		it := prog.NewInterp(p)
		it.Run(5_000_000)
		if !it.Halted {
			t.Fatalf("seed %d: reference did not halt", seed)
		}

		c, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(20_000_000)
		if !c.Halted(0) {
			t.Fatalf("seed %d: pipeline did not halt (committed %d of %d)",
				seed, c.Committed(0), it.Steps)
		}
		if c.Committed(0) != it.Steps {
			t.Fatalf("seed %d: committed %d, reference %d", seed, c.Committed(0), it.Steps)
		}
		regs := c.ArchRegs(0)
		for r := 0; r < isa.NumArchRegs; r++ {
			if regs[r] != it.Regs[r] {
				t.Fatalf("seed %d: reg %s = %#x, reference %#x", seed, isa.Reg(r), regs[r], it.Regs[r])
			}
		}
		sameMemory(t, c, it, fmt.Sprintf("seed %d: ", seed))
	}
}

// TestFuzzUnderDetectorActions repeats the differential test with a
// scripted detector hammering replays, rollbacks, and singletons: the
// recovery machinery must stay architecturally invisible on arbitrary
// control flow.
func TestFuzzUnderDetectorActions(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	actions := []detect.Action{detect.Replay, detect.Rollback}
	for seed := uint64(100); seed < uint64(100+seeds); seed++ {
		p := prog.Random(prog.DefaultRandomConfig(), seed)
		it := prog.NewInterp(p)
		it.Run(5_000_000)
		if !it.Halted {
			continue
		}
		act := actions[seed%2]
		det := &fakeDetector{completeAct: act, commitAct: detect.Singleton, fireEvery: 7}
		c, err := New(DefaultConfig(1), []*prog.Program{p}, det)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(40_000_000)
		if !c.Halted(0) {
			t.Fatalf("seed %d (%v): pipeline wedged (committed %d of %d)",
				seed, act, c.Committed(0), it.Steps)
		}
		if c.ArchRegs(0) != it.Regs {
			t.Fatalf("seed %d (%v): architectural divergence under detector actions", seed, act)
		}
	}
}

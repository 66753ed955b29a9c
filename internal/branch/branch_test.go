package branch

import "testing"

func TestLearnsAlwaysTaken(t *testing.T) {
	p := New(DefaultConfig())
	pc, target := uint64(100), uint64(50)
	// Train past the point where the gshare history saturates (the PHT
	// index is stable only once the 14-bit history is all ones).
	for i := 0; i < 40; i++ {
		pred := p.PredictCond(pc)
		p.Update(pc, pred, true, target, true)
		if !pred.Taken {
			p.RecoverMispredict(pred, true)
		}
	}
	pred := p.PredictCond(pc)
	if !pred.Taken || pred.Target != target {
		t.Fatalf("after training: taken=%v target=%d", pred.Taken, pred.Target)
	}
}

func TestLearnsNeverTaken(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(200)
	for i := 0; i < 10; i++ {
		pred := p.PredictCond(pc)
		p.Update(pc, pred, false, 0, true)
	}
	if pred := p.PredictCond(pc); pred.Taken {
		t.Fatal("should predict not-taken after training")
	}
}

func TestColdTakenWithoutBTBFallsThrough(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(300)
	// Saturate the direction counter without installing a BTB entry for
	// a different pc mapping... train direction via updates with
	// taken=true (which installs BTB). Then query a different pc that
	// aliases the same PHT entry but not the same BTB entry.
	for i := 0; i < 4; i++ {
		pred := p.PredictCond(pc)
		p.Update(pc, pred, true, 77, true)
	}
	// pc+BTBEntries maps to the same BTB slot but with a different tag.
	alias := pc + uint64(DefaultConfig().BTBEntries)
	pred := p.PredictCond(alias)
	if pred.Taken && pred.Target == 0 {
		t.Fatal("must not predict taken with unknown target")
	}
}

func TestMispredictCounting(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(40)
	pred := p.PredictCond(pc) // cold: predicts not-taken
	p.Update(pc, pred, true, 7, true)
	if p.Mispredicts != 1 {
		t.Fatalf("mispredicts = %d, want 1", p.Mispredicts)
	}
	if p.MispredictRate() != 1.0 {
		t.Fatalf("rate = %v", p.MispredictRate())
	}
}

func TestWrongTargetIsMispredict(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(60)
	for i := 0; i < 40; i++ {
		pred := p.PredictCond(pc)
		p.Update(pc, pred, true, 10, true)
		if !pred.Taken {
			p.RecoverMispredict(pred, true)
		}
	}
	base := p.Mispredicts
	pred := p.PredictCond(pc)
	if !pred.Taken || pred.Target != 10 {
		t.Fatal("setup: should predict taken to 10")
	}
	p.Update(pc, pred, true, 20, true) // same direction, new target
	if p.Mispredicts != base+1 {
		t.Fatal("wrong target should count as mispredict")
	}
}

func TestRASCallReturn(t *testing.T) {
	p := New(DefaultConfig())
	// Call at pc 10 pushes return address 11.
	p.PredictJump(10, true, false)
	pred := p.PredictJump(50, false, true)
	if !pred.Taken || pred.Target != 11 {
		t.Fatalf("RAS return: %+v", pred)
	}
}

func TestRASNesting(t *testing.T) {
	p := New(DefaultConfig())
	p.PredictJump(10, true, false)
	p.PredictJump(20, true, false)
	if pred := p.PredictJump(30, false, true); pred.Target != 21 {
		t.Fatalf("inner return target = %d, want 21", pred.Target)
	}
	if pred := p.PredictJump(31, false, true); pred.Target != 11 {
		t.Fatalf("outer return target = %d, want 11", pred.Target)
	}
}

func TestRASOverflowKeepsNewest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RASEntries = 2
	p := New(cfg)
	p.PredictJump(1, true, false) // ret 2 (will be lost)
	p.PredictJump(2, true, false) // ret 3
	p.PredictJump(3, true, false) // ret 4, evicts ret 2
	if pred := p.PredictJump(9, false, true); pred.Target != 4 {
		t.Fatalf("target = %d, want 4", pred.Target)
	}
	if pred := p.PredictJump(9, false, true); pred.Target != 3 {
		t.Fatalf("target = %d, want 3", pred.Target)
	}
}

func TestJumpBTBLearning(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(77)
	pred := p.PredictJump(pc, false, false)
	if pred.Taken {
		t.Fatal("cold indirect jump should fall through")
	}
	p.Update(pc, pred, true, 123, false)
	pred = p.PredictJump(pc, false, false)
	if !pred.Taken || pred.Target != 123 {
		t.Fatalf("after BTB install: %+v", pred)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(5)
	// Train always-taken long enough that the history (and hence the
	// PHT index) reaches a fixed point and saturates.
	for i := 0; i < 100; i++ {
		pred := p.PredictCond(pc)
		p.Update(pc, pred, true, 9, true)
		if !pred.Taken {
			p.RecoverMispredict(pred, true)
		}
	}
	c := p.CloneInto(nil)
	// Retrain the clone to not-taken.
	for i := 0; i < 8; i++ {
		pred := c.PredictCond(pc)
		c.Update(pc, pred, false, 0, true)
		if pred.Taken {
			c.RecoverMispredict(pred, false)
		}
	}
	if pred := p.PredictCond(pc); !pred.Taken {
		t.Fatal("clone training leaked into original")
	}
}

func TestAlternatingPatternWithHistory(t *testing.T) {
	// Gshare should learn a strict T/N/T/N alternation via history.
	p := New(DefaultConfig())
	pc := uint64(400)
	taken := false
	step := func() bool {
		taken = !taken
		pred := p.PredictCond(pc)
		ok := pred.Taken == taken
		p.Update(pc, pred, taken, 40, true)
		if !ok {
			p.RecoverMispredict(pred, taken)
		}
		return ok
	}
	// Train.
	for i := 0; i < 200; i++ {
		step()
	}
	// Measure.
	correct := 0
	for i := 0; i < 100; i++ {
		if step() {
			correct++
		}
	}
	if correct < 95 {
		t.Fatalf("gshare learned alternation only %d/100", correct)
	}
}

func TestRecoverMispredict(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(9)
	pred := p.PredictCond(pc) // cold: not-taken, history gets a 0 bit
	// Fetch more branches on the (wrong) path.
	p.PredictCond(pc + 1)
	p.PredictCond(pc + 2)
	p.Update(pc, pred, true, 5, true)
	p.RecoverMispredict(pred, true)
	if p.History()&1 != 1 {
		t.Fatal("recovered history should end with the resolved outcome")
	}
	if p.History()>>1 != 0 {
		t.Fatal("wrong-path history bits should be discarded")
	}
}

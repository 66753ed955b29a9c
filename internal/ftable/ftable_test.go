package ftable

import (
	"testing"
	"testing/quick"

	"faulthound/internal/filter"
)

func small(policy filter.Policy) Config {
	return Config{Entries: 16, Policy: policy}
}

func TestFirstTouchInstallsWithoutTrigger(t *testing.T) {
	tb := New(small(filter.Sticky))
	if trig, _ := tb.Lookup(100, 0xabc); trig {
		t.Fatal("first touch must not trigger")
	}
	if tb.Stats().Installs != 1 {
		t.Fatalf("installs = %d", tb.Stats().Installs)
	}
}

func TestSamePCSameValueNoTrigger(t *testing.T) {
	tb := New(small(filter.Sticky))
	tb.Lookup(100, 0xabc)
	if trig, _ := tb.Lookup(100, 0xabc); trig {
		t.Fatal("repeat value must not trigger")
	}
}

func TestChangedValueTriggersOnce(t *testing.T) {
	tb := New(small(filter.Sticky))
	tb.Lookup(100, 0b0000)
	trig, mask := tb.Lookup(100, 0b0001)
	if !trig || mask != 1 {
		t.Fatalf("trigger=%v mask=%b", trig, mask)
	}
	// Sticky: the bit saturates at changing; later flips never trigger.
	for i := 0; i < 10; i++ {
		if trig, _ := tb.Lookup(100, uint64(i%2)); trig {
			t.Fatal("sticky counter must not re-trigger until clear")
		}
	}
}

func TestPCSpreadingSeparatesSimilarValues(t *testing.T) {
	// The PC-indexed weakness FaultHound fixes: two instructions with
	// identical value streams learn independently, so both trigger.
	tb := New(small(filter.Biased2))
	tb.Lookup(1, 0x1000)
	tb.Lookup(2, 0x1000)
	t1, _ := tb.Lookup(1, 0x1008)
	t2, _ := tb.Lookup(2, 0x1008)
	if !t1 || !t2 {
		t.Fatal("both PC entries should trigger independently (no clustering)")
	}
}

func TestDirectMappedAliasing(t *testing.T) {
	tb := New(small(filter.Biased2))
	tb.Lookup(5, 0)                  // entry 5
	trig, _ := tb.Lookup(21, 0xffff) // 21 % 16 == 5: aliases
	if !trig {
		t.Fatal("aliased PC with a far value should trigger")
	}
}

func TestPeriodicClearRestoresDetection(t *testing.T) {
	cfg := small(filter.Sticky)
	cfg.ClearInterval = 8
	tb := New(cfg)
	tb.Lookup(3, 0)
	tb.Lookup(3, 1) // bit 0 goes sticky-changing
	for i := 0; i < 10; i++ {
		tb.Lookup(3, 1) // stable; crosses the clear interval
	}
	if tb.Stats().FlashClears == 0 {
		t.Fatal("expected a periodic clear")
	}
	// After the clear the counters are unchanging again: a flip triggers.
	if trig, _ := tb.Lookup(3, 0); !trig {
		t.Fatal("flip after clear should trigger again")
	}
}

func TestCloneIndependence(t *testing.T) {
	tb := New(small(filter.Biased2))
	tb.Lookup(7, 100)
	c := tb.CloneInto(nil)
	c.Lookup(7, 0xffffffff)
	if tb.Stats().Lookups != 1 {
		t.Fatal("clone lookup leaked into original")
	}
	if trig, _ := tb.Lookup(7, 100); trig {
		t.Fatal("original entry disturbed by clone")
	}
}

func TestPanicsOnZeroEntries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

// Property: looking up the same (pc, value) twice in a row never
// triggers the second time.
func TestRepeatNeverTriggersProperty(t *testing.T) {
	f := func(pairs []struct {
		PC uint16
		V  uint64
	}) bool {
		tb := New(small(filter.Biased2))
		for _, p := range pairs {
			tb.Lookup(uint64(p.PC), p.V)
			if trig, _ := tb.Lookup(uint64(p.PC), p.V); trig {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: triggers never exceed lookups, and installs never exceed
// the entry count.
func TestStatsBoundsProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		tb := New(small(filter.Sticky))
		for i, v := range vals {
			tb.Lookup(uint64(i), v)
		}
		s := tb.Stats()
		return s.Triggers <= s.Lookups && s.Installs <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

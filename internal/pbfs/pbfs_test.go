package pbfs

import (
	"testing"

	"faulthound/internal/detect"
)

func ev(kind detect.Kind, pc, v uint64) detect.Event {
	return detect.Event{Kind: kind, PC: pc, Value: v}
}

func TestFirstChangeRollsBack(t *testing.T) {
	p := New(Default())
	p.OnComplete(ev(detect.LoadAddr, 10, 0x1000))
	if act := p.OnComplete(ev(detect.LoadAddr, 10, 0x1000)); act != detect.None {
		t.Fatalf("stable value acted: %v", act)
	}
	if act := p.OnComplete(ev(detect.LoadAddr, 10, 0x1001)); act != detect.Rollback {
		t.Fatalf("changed value: %v, want rollback", act)
	}
}

func TestStickyLowCoverage(t *testing.T) {
	// After the first trigger the sticky counter saturates: subsequent
	// changes in the same bit are invisible (PBFS's low coverage).
	p := New(Default())
	p.OnComplete(ev(detect.LoadAddr, 10, 0))
	p.OnComplete(ev(detect.LoadAddr, 10, 1))
	for i := 0; i < 5; i++ {
		if act := p.OnComplete(ev(detect.LoadAddr, 10, uint64(i%2))); act != detect.None {
			t.Fatalf("saturated bit acted: %v", act)
		}
	}
}

func TestSeparateAddressAndValueTables(t *testing.T) {
	p := New(Default())
	p.OnComplete(ev(detect.StoreAddr, 10, 0x1000))
	p.OnComplete(ev(detect.StoreValue, 10, 7))
	// Same PC, very different streams: value table must not have been
	// polluted by the address.
	if act := p.OnComplete(ev(detect.StoreValue, 10, 7)); act != detect.None {
		t.Fatalf("value stream polluted by address stream: %v", act)
	}
}

func TestNoCommitChecks(t *testing.T) {
	p := New(Default())
	p.OnComplete(ev(detect.LoadAddr, 10, 0))
	if act := p.OnCommit(ev(detect.LoadAddr, 10, 0xffff)); act != detect.None {
		t.Fatalf("PBFS has no LSQ coverage, got %v", act)
	}
}

func TestBiasedVariantRetriggers(t *testing.T) {
	p := New(Biased())
	p.OnComplete(ev(detect.LoadAddr, 10, 0))
	p.OnComplete(ev(detect.LoadAddr, 10, 1)) // trigger; bit 0 changing
	// Re-learn stability, then flip again: the biased machine (unlike
	// sticky) re-enters unchanging and triggers again (better coverage,
	// more false positives).
	p.OnComplete(ev(detect.LoadAddr, 10, 1))
	p.OnComplete(ev(detect.LoadAddr, 10, 1))
	if act := p.OnComplete(ev(detect.LoadAddr, 10, 0)); act != detect.Rollback {
		t.Fatalf("biased variant should re-trigger: %v", act)
	}
}

func TestLearnOnlySuppresses(t *testing.T) {
	p := New(Biased())
	p.OnComplete(ev(detect.LoadAddr, 10, 0))
	p.SetLearnOnly(true)
	if act := p.OnComplete(ev(detect.LoadAddr, 10, 0xffffffff)); act != detect.None {
		t.Fatalf("learn-only acted: %v", act)
	}
	p.SetLearnOnly(false)
}

func TestStatsAndName(t *testing.T) {
	p := New(Default())
	if p.Name() != "pbfs" {
		t.Fatalf("name = %q", p.Name())
	}
	if New(Biased()).Name() != "pbfs-biased" {
		t.Fatal("biased name wrong")
	}
	p.OnComplete(ev(detect.LoadAddr, 10, 0))
	p.OnComplete(ev(detect.LoadAddr, 10, 0xffff))
	s := p.Stats()
	if s.Checks != 2 || s.Triggers != 1 || s.Rollbacks != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.TableReads == 0 {
		t.Fatal("table reads not counted")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New(Biased())
	p.OnComplete(ev(detect.LoadAddr, 10, 100))
	c := p.CloneInto(nil)
	c.OnComplete(ev(detect.LoadAddr, 10, 0xffffffff))
	if p.Stats().Checks != 1 {
		t.Fatal("clone check leaked into original")
	}
	if act := p.OnComplete(ev(detect.LoadAddr, 10, 100)); act != detect.None {
		t.Fatal("original filters disturbed by clone")
	}
}

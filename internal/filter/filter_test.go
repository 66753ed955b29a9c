package filter

import (
	"math/bits"
	"testing"
	"testing/quick"

	"faulthound/internal/sm"
)

func TestNewFilterMatchesItsValue(t *testing.T) {
	f := New(Biased2, 0xdeadbeef)
	if f.Match(0xdeadbeef) != 0 {
		t.Fatal("fresh filter must match its own value")
	}
	if f.UnchangingMask() != ^uint64(0) {
		t.Fatal("fresh filter must be all-unchanging")
	}
}

func TestMatchReportsMismatchedBits(t *testing.T) {
	f := New(Biased2, 0b1010)
	got := f.Match(0b1001)
	if got != 0b0011 {
		t.Fatalf("mismatch mask = %b, want 0011", got)
	}
	if f.MismatchCount(0b1001) != 2 {
		t.Fatalf("count = %d", f.MismatchCount(0b1001))
	}
}

// Figure 1 of the paper: filter CCUU with previous value 0b0110 encodes
// the subspace **10: values 0010, 0110, 1010, 1110 match.
func TestFigure1Neighborhood(t *testing.T) {
	f := New(Biased2, 0b0110)
	// Drive bits 2 and 3 to "changing" by observing values that toggle
	// only those bits.
	f.Observe(0b1010) // bits 2,3 change
	if f.ChangingMask() != 0b1100 {
		t.Fatalf("changing mask = %b, want 1100", f.ChangingMask())
	}
	for _, v := range []uint64{0b0010, 0b0110, 0b1010, 0b1110} {
		if f.Match(v) != 0 {
			t.Errorf("value %04b should match", v)
		}
	}
	for _, v := range []uint64{0b0000, 0b0111, 0b1001, 0b1111} {
		if f.Match(v) == 0 {
			t.Errorf("value %04b should not match", v)
		}
	}
}

func TestObserveAlarmsOnUnchangingChange(t *testing.T) {
	f := New(Biased2, 0)
	alarms := f.Observe(0b1)
	if alarms != 0b1 {
		t.Fatalf("alarms = %b, want 1", alarms)
	}
	// The alarmed bit is now changing; a further toggle must not alarm.
	if f.Observe(0) != 0 {
		t.Fatal("changing bit must not alarm")
	}
}

func TestObserveUpdatesPrev(t *testing.T) {
	f := New(Biased2, 5)
	f.Observe(9)
	if f.Prev() != 9 {
		t.Fatalf("prev = %d, want 9", f.Prev())
	}
}

func TestBiased2ReEntersUnchangingAfterTwoStableObservations(t *testing.T) {
	f := New(Biased2, 0)
	f.Observe(1) // bit 0 changes -> changing
	f.Observe(1) // no change (1 of 2)
	if f.UnchangingMask()&1 != 0 {
		t.Fatal("one stable observation must not re-enter unchanging")
	}
	f.Observe(1) // no change (2 of 2)
	if f.UnchangingMask()&1 == 0 {
		t.Fatal("two stable observations should re-enter unchanging")
	}
	// Now a flip alarms again.
	if f.Observe(0)&1 == 0 {
		t.Fatal("flip after re-learning should alarm")
	}
}

func TestStickyNeverDecays(t *testing.T) {
	f := New(Sticky, 0)
	f.Observe(1)
	for i := 0; i < 50; i++ {
		f.Observe(1) // stable forever
	}
	if f.ChangingMask()&1 == 0 {
		t.Fatal("sticky bit must stay changing until FlashClear")
	}
	f.FlashClear()
	if f.ChangingMask() != 0 {
		t.Fatal("FlashClear should reset all bits to unchanging")
	}
	if f.Prev() != 1 {
		t.Fatal("FlashClear must keep the previous value")
	}
}

func TestResetReinitializes(t *testing.T) {
	f := New(Biased2, 0)
	f.Observe(0xff)
	f.Reset(42)
	if f.Prev() != 42 || f.ChangingMask() != 0 {
		t.Fatal("Reset should install a fresh all-unchanging filter")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := New(Biased2, 0)
	c := *f // a Filter is a value: a copy by assignment is a deep copy
	f.Observe(0xffff)
	if c.ChangingMask() != 0 {
		t.Fatal("clone shares state with original")
	}
}

// scalarFor builds the sm-package machine equivalent to a policy.
func scalarFor(p Policy) sm.ChangeTracker {
	switch p {
	case Sticky:
		return sm.NewSticky()
	case Biased2:
		return sm.NewBiased(2)
	case Biased3:
		return sm.NewBiased(3)
	case Standard4:
		return sm.NewStandard(4)
	}
	panic("unknown policy")
}

// Property: for every policy, the vectorized bit-plane machine behaves
// identically (alarms and changing classification) to the scalar
// reference machine in package sm, on every bit position, for any
// observation sequence.
func TestPlaneEquivalenceProperty(t *testing.T) {
	for _, pol := range []Policy{Sticky, Biased2, Biased3, Standard4} {
		pol := pol
		f := func(values []uint64) bool {
			fil := New(pol, 0)
			var scalars [64]sm.ChangeTracker
			for i := range scalars {
				scalars[i] = scalarFor(pol)
			}
			prev := uint64(0)
			for _, v := range values {
				alarms := fil.Observe(v)
				c := v ^ prev
				for i := uint(0); i < 64; i++ {
					wantAlarm := scalars[i].Observe(c>>i&1 == 1)
					if bool(wantAlarm) != (alarms>>i&1 == 1) {
						return false
					}
					if scalars[i].Changing() != (fil.ChangingMask()>>i&1 == 1) {
						return false
					}
				}
				prev = v
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
	}
}

// Property: Match is consistent with Observe — the alarm mask returned
// by Observe equals the Match result computed immediately before it.
func TestMatchObserveConsistencyProperty(t *testing.T) {
	f := func(values []uint64, polRaw uint8) bool {
		pol := Policy(polRaw % 4)
		fil := New(pol, 0)
		for _, v := range values {
			want := fil.Match(v)
			got := fil.Observe(v)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after Observe(v), the filter always matches v (prev == v and
// any previously mismatching bits have become changing).
func TestObserveThenMatchProperty(t *testing.T) {
	f := func(values []uint64, polRaw uint8) bool {
		pol := Policy(polRaw % 4)
		fil := New(pol, 0)
		for _, v := range values {
			fil.Observe(v)
			if fil.Match(v) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MismatchCount equals popcount of Match.
func TestMismatchCountProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		fil := New(Biased2, a)
		return fil.MismatchCount(b) == bits.OnesCount64(fil.Match(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateOf(t *testing.T) {
	f := New(Biased3, 0)
	f.Observe(1)
	if f.StateOf(0) != 3 {
		t.Fatalf("state of bit 0 = %d, want 3", f.StateOf(0))
	}
	if f.StateOf(1) != 0 {
		t.Fatalf("state of bit 1 = %d, want 0", f.StateOf(1))
	}
}

func TestPolicyString(t *testing.T) {
	names := map[Policy]string{Sticky: "sticky", Biased2: "biased2", Biased3: "biased3", Standard4: "standard4"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

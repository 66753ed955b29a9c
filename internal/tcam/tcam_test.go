package tcam

import (
	"testing"
	"testing/quick"

	"faulthound/internal/filter"
)

// cfg returns a small config with the given features toggled.
func cfg(entries int, second, squash bool) Config {
	c := DefaultConfig()
	c.Entries = entries
	c.SecondLevel = second
	c.SquashMachines = squash
	return c
}

func TestColdLookupInstallsWithoutTrigger(t *testing.T) {
	tc := New(cfg(4, false, false))
	res := tc.Lookup(100)
	if res.Trigger {
		t.Fatal("first lookup must not trigger")
	}
	f, used := tc.Entry(0)
	if !used || f.Prev() != 100 {
		t.Fatal("first lookup should install the value")
	}
}

func TestMatchingValueNoTrigger(t *testing.T) {
	tc := New(cfg(4, false, false))
	tc.Lookup(100)
	if res := tc.Lookup(100); res.Trigger {
		t.Fatal("identical value should match")
	}
}

func TestNearbyValueLoosens(t *testing.T) {
	tc := New(cfg(4, false, false))
	tc.Lookup(0b1000)
	// One bit different: within the loosen threshold (4).
	res := tc.Lookup(0b1001)
	if !res.Trigger {
		t.Fatal("new neighborhood bit should trigger")
	}
	if res.Replaced {
		t.Fatal("1-bit mismatch should loosen, not replace")
	}
	if tc.Stats().Loosened != 1 {
		t.Fatalf("stats: %+v", tc.Stats())
	}
	// The differing bit is now a wildcard: both values match.
	if res := tc.Lookup(0b1000); res.Trigger {
		t.Fatal("loosened filter should accept the old value")
	}
}

func TestFarValueReplaces(t *testing.T) {
	tc := New(cfg(4, false, false))
	tc.Lookup(0)
	res := tc.Lookup(0xffffffffffffffff) // 64 mismatches > threshold 4
	if !res.Trigger || !res.Replaced {
		t.Fatalf("far value should replace: %+v", res)
	}
	// Installed into a free entry; the original filter survives.
	if res := tc.Lookup(0); res.Trigger {
		t.Fatal("original neighborhood should survive a replacement into a free entry")
	}
}

func TestLRUReplacementWhenFull(t *testing.T) {
	c := cfg(2, false, false)
	tc := New(c)
	// Fill both entries with far-apart neighborhoods.
	tc.Lookup(0x0000000000000000)
	tc.Lookup(0x00000000ffffffff)
	// Touch entry 0 to make entry 1 the LRU.
	tc.Lookup(0x0000000000000000)
	// A third far value must evict entry 1.
	tc.Lookup(0xffffffff00000000)
	if res := tc.Lookup(0x0000000000000000); res.Trigger {
		t.Fatal("MRU neighborhood evicted instead of LRU")
	}
	if res := tc.Lookup(0x00000000ffffffff); !res.Trigger {
		t.Fatal("LRU neighborhood should have been evicted")
	}
}

func TestClusteringReinforcesSharedFilter(t *testing.T) {
	// Values from a strided stream cluster into very few filters (the
	// inverted organization of Section 3.1), and the stride's
	// periodically-toggling carry bits — the paper's delinquent bit
	// positions — are mostly suppressed by the second-level filter.
	tc := New(cfg(16, true, false))
	base := uint64(0x10000000)
	rawLate, allowedLate := 0, 0
	for i := uint64(0); i < 400; i++ {
		res := tc.Lookup(base + i*8)
		if i >= 200 && res.Trigger {
			rawLate++
			if !res.Suppressed {
				allowedLate++
			}
		}
	}
	used := 0
	for i := 0; i < 16; i++ {
		if _, u := tc.Entry(i); u {
			used++
		}
	}
	if used > 8 {
		t.Fatalf("stride stream spread over %d filters; clustering should use few", used)
	}
	if rawLate > 0 && allowedLate*2 > rawLate {
		t.Fatalf("second-level filter too weak: %d/%d late triggers allowed", allowedLate, rawLate)
	}
}

func TestSecondLevelSuppressesDelinquentBit(t *testing.T) {
	c := cfg(4, true, false)
	tc := New(c)
	tc.Lookup(0)
	// Bit 0 toggles with long stable runs: each toggle re-triggers after
	// the biased machine re-learns "unchanging". The second-level filter
	// should suppress the repeats.
	suppressed, allowed := 0, 0
	v := uint64(0)
	for round := 0; round < 20; round++ {
		v ^= 1
		res := tc.Lookup(v)
		if res.Trigger {
			if res.Suppressed {
				suppressed++
			} else {
				allowed++
			}
		}
		// Stable run so the bit re-enters "unchanging".
		for k := 0; k < 3; k++ {
			tc.Lookup(v)
		}
	}
	if allowed == 0 {
		t.Fatal("the very first trigger should be allowed")
	}
	if suppressed == 0 {
		t.Fatal("repeated delinquent-bit triggers should be suppressed")
	}
	if suppressed < allowed {
		t.Fatalf("suppression too weak: %d suppressed vs %d allowed", suppressed, allowed)
	}
}

func TestSecondLevelAllowsQuietBit(t *testing.T) {
	c := cfg(8, true, false)
	tc := New(c)
	// Establish a stable neighborhood.
	for i := 0; i < 10; i++ {
		tc.Lookup(0x40)
	}
	// A never-before-mismatched bit (bit 3) flips: must be allowed.
	res := tc.Lookup(0x48)
	if !res.Trigger || res.Suppressed {
		t.Fatalf("fresh bit flip should be an allowed trigger: %+v", res)
	}
}

func TestSquashMachineDetectsIdentityChange(t *testing.T) {
	c := cfg(4, false, true)
	tc := New(c)
	// Two neighborhoods; traffic alternates within neighborhood A.
	for i := 0; i < 20; i++ {
		tc.Lookup(0x1000)
	}
	tc.Lookup(0xffffffff00000000) // install far neighborhood B
	for i := 0; i < 20; i++ {
		tc.Lookup(0xffffffff00000000)
	}
	// A replacement-level trigger (far from every filter, an identity
	// change) after a quiet run signals a likely rename fault.
	res := tc.Lookup(0x00ff00ff00ff00ff)
	if !res.Trigger || !res.Replaced {
		t.Fatalf("expected replacement-level trigger: %+v", res)
	}
	if !res.SquashAllowed {
		t.Fatal("identity change after quiet run should allow squash")
	}
	// A small (loosen-level) mismatch is natural drift: never a squash.
	tc2 := New(cfg(4, false, true))
	for i := 0; i < 20; i++ {
		tc2.Lookup(0x1000)
	}
	res = tc2.Lookup(0x1008)
	if !res.Trigger {
		t.Fatal("expected trigger")
	}
	if res.SquashAllowed {
		t.Fatal("loosen-level trigger must not squash")
	}
}

func TestLearnOnlySuppressesTriggers(t *testing.T) {
	tc := New(cfg(4, true, true))
	tc.Lookup(0)
	tc.SetLearnOnly(true)
	res := tc.Lookup(0xffffffffffffffff)
	if res.Trigger || res.Suppressed || res.SquashAllowed {
		t.Fatalf("learn-only lookup must not act: %+v", res)
	}
	if tc.Stats().Triggers != 0 {
		t.Fatal("learn-only lookups must not count triggers")
	}
	tc.SetLearnOnly(false)
	// But the value was learned: it matches now.
	if res := tc.Lookup(0xffffffffffffffff); res.Trigger {
		t.Fatal("learn-only lookup should still have installed the value")
	}
}

func TestPeriodicClear(t *testing.T) {
	c := cfg(4, false, false)
	c.PeriodicClear = 10
	tc := New(c)
	tc.Lookup(0)
	tc.Lookup(1) // loosens bit 0 to changing
	for i := 0; i < 12; i++ {
		tc.Lookup(1)
	}
	if tc.Stats().FlashClears == 0 {
		t.Fatal("expected at least one flash clear")
	}
}

func TestStatsAccounting(t *testing.T) {
	tc := New(cfg(2, true, true))
	tc.Lookup(0)
	tc.Lookup(0xffffffffffffffff)
	s := tc.Stats()
	if s.Lookups != 2 {
		t.Fatalf("lookups = %d", s.Lookups)
	}
	if s.Triggers != 1 {
		t.Fatalf("triggers = %d", s.Triggers)
	}
	if s.Replaced != 1 {
		t.Fatalf("replaced = %d", s.Replaced)
	}
}

func TestCloneIndependence(t *testing.T) {
	tc := New(DefaultConfig())
	tc.Lookup(100)
	c := tc.CloneInto(nil)
	c.Lookup(0xffffffffffffffff)
	if tc.Stats().Lookups != 1 {
		t.Fatal("clone lookup leaked into original stats")
	}
	if res := tc.Lookup(100); res.Trigger {
		t.Fatal("original filters disturbed by clone")
	}
}

func TestPanicsOnZeroEntries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Entries: 0})
}

// Property: a lookup of a value twice in a row never triggers the
// second time (Observe guarantees the winning filter matches v).
func TestRepeatLookupNeverTriggersProperty(t *testing.T) {
	f := func(values []uint64) bool {
		tc := New(cfg(8, false, false))
		for _, v := range values {
			tc.Lookup(v)
			if res := tc.Lookup(v); res.Trigger {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: stats conservation — every trigger is exactly one of
// suppressed, replay, or squash (outside learn-only mode).
func TestTriggerAccountingProperty(t *testing.T) {
	f := func(values []uint64) bool {
		tc := New(New(DefaultConfig()).cfg)
		for _, v := range values {
			tc.Lookup(v)
		}
		s := tc.Stats()
		return s.Triggers == s.Suppressed+s.Replays+s.Squashes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of used entries never exceeds the configured
// entry count and lookups never panic, for any value stream.
func TestBoundedEntriesProperty(t *testing.T) {
	f := func(values []uint64, e8 uint8) bool {
		entries := int(e8%8) + 1
		tc := New(cfg(entries, true, true))
		for _, v := range values {
			tc.Lookup(v)
		}
		used := 0
		for i := 0; i < entries; i++ {
			if _, u := tc.Entry(i); u {
				used++
			}
		}
		return used <= entries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSeparateAddressValuePolicies(t *testing.T) {
	// The package supports distinct configurations per TCAM as the
	// paper requires separate address and value TCAMs.
	a := New(Config{Entries: 16, Policy: filter.Biased2, LoosenThreshold: 4})
	v := New(Config{Entries: 32, Policy: filter.Sticky, LoosenThreshold: 2})
	if a.Config().Entries == v.Config().Entries {
		t.Fatal("configs should be independent")
	}
}

// Property: Probe never mutates state and agrees with the trigger
// decision an immediately following Lookup makes.
func TestProbeConsistencyProperty(t *testing.T) {
	f := func(warm []uint64, v uint64) bool {
		tc := New(DefaultConfig())
		for _, w := range warm {
			tc.Lookup(w)
		}
		before := tc.CloneInto(nil)
		pt, _ := tc.Probe(v)
		// Probe must not change any observable behavior.
		if bt, _ := before.Probe(v); bt != pt {
			return false
		}
		res := tc.Lookup(v)
		resB := before.Lookup(v)
		return res.Trigger == resB.Trigger && pt == res.Trigger
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestProbeColdAndLearnOnly(t *testing.T) {
	tc := New(DefaultConfig())
	if trig, _ := tc.Probe(123); trig {
		t.Fatal("cold probe must not trigger")
	}
	tc.Lookup(0)
	tc.SetLearnOnly(true)
	if trig, _ := tc.Probe(0xffffffffffffffff); trig {
		t.Fatal("learn-only probe must not trigger")
	}
}

func TestSecondLevelUnionMode(t *testing.T) {
	c := DefaultConfig()
	c.SecondLevelUnion = true
	tc := New(c)
	// Union training considers every filter's mismatch bits, so it arms
	// suppressors faster; the lookup path must still be well-formed.
	for i := uint64(0); i < 200; i++ {
		tc.Lookup(0x1000 + (i%7)*0x40)
	}
	s := tc.Stats()
	if s.Triggers != s.Suppressed+s.Replays+s.Squashes {
		t.Fatalf("accounting broken in union mode: %+v", s)
	}
}

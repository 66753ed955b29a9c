// Package filter implements the bit-mask filter of PBFS and FaultHound
// (ISCA'15 Figure 1): a per-bit change-tracking state machine plus the
// previous value. Together they encode a ternary value neighborhood —
// "unchanging 0", "unchanging 1", and "changing wildcard" — against
// which incoming values are matched.
//
// The per-bit state machines are stored as two 64-wide bit planes so a
// 64-bit filter transitions all bits in a handful of word operations;
// filter_test.go proves the planes equivalent to the scalar machines in
// package sm by property testing.
package filter

import "math/bits"

// Policy selects the per-bit state machine.
type Policy uint8

const (
	// Sticky is PBFS's one-bit sticky counter: one change saturates the
	// bit at "changing" until FlashClear.
	Sticky Policy = iota
	// Biased2 is the paper's biased two-bit machine (Figure 2b): two
	// consecutive no-changes to re-enter "unchanging".
	Biased2
	// Biased3 is the three-deep biased machine the paper mentions as
	// trading coverage (80% -> 60%) for fewer false positives.
	Biased3
	// Standard4 is the conventional 4-state saturating counter of
	// Figure 2(a) with direct U<->C1 transitions.
	Standard4
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Sticky:
		return "sticky"
	case Biased2:
		return "biased2"
	case Biased3:
		return "biased3"
	case Standard4:
		return "standard4"
	}
	return "?"
}

// Filter is one 64-bit bit-mask filter. The zero value is unusable; use
// New or Reset.
//
// State encoding per bit, in planes (s1 s0):
//
//	Sticky:    0 = unchanging, 3 = changing (never decays)
//	BiasedN:   k = number of no-changes still needed to re-enter
//	           unchanging (0 = unchanging, N = just changed)
//	Standard4: 0 = U, 1..3 = C1..C3 (inc on change, dec on no-change)
type Filter struct {
	policy Policy
	prev   uint64
	s1, s0 uint64
}

// New returns a filter under policy with all bits "unchanging" and
// previous value v — the state a replacement installs (Section 3.1).
func New(policy Policy, v uint64) *Filter {
	return &Filter{policy: policy, prev: v}
}

// Make is New as a value: the TCAM and filter table store filters in
// flat value slices, so a bank of filters is one allocation and a bank
// clone is one bulk copy.
func Make(policy Policy, v uint64) Filter {
	return Filter{policy: policy, prev: v}
}

// Policy returns the filter's state machine policy.
func (f *Filter) Policy() Policy { return f.policy }

// Prev returns the previous value.
func (f *Filter) Prev() uint64 { return f.prev }

// ChangingMask returns the bit positions currently treated as wildcards.
func (f *Filter) ChangingMask() uint64 { return f.s1 | f.s0 }

// UnchangingMask returns the bit positions that must match Prev.
func (f *Filter) UnchangingMask() uint64 { return ^(f.s1 | f.s0) }

// Match returns the mask of bit positions where v fails to match the
// filter: unchanging positions whose bit differs from the previous
// value. A zero result means the value lies inside the neighborhood.
// Match does not modify the filter.
func (f *Filter) Match(v uint64) uint64 {
	return (v ^ f.prev) & f.UnchangingMask()
}

// MismatchCount returns the number of mismatching bit positions — the
// counting-TCAM distance used for the loosen-vs-replace decision.
func (f *Filter) MismatchCount(v uint64) int {
	return bits.OnesCount64(f.Match(v))
}

// Observe transitions every bit's state machine with v's change status
// relative to the previous value, sets the previous value to v, and
// returns the mask of bits that alarmed (changed while unchanging).
// This is the paper's "update as part of the lookup": it covers the
// fully-matching case, the loosening case (mismatched unchanging bits
// move to "changing"), and ordinary reinforcement of changing bits.
func (f *Filter) Observe(v uint64) (alarms uint64) {
	c := v ^ f.prev
	unchanging := f.UnchangingMask()
	alarms = c & unchanging

	switch f.policy {
	case Sticky:
		// Changed bits saturate to 3; nothing decays.
		f.s1 |= c
		f.s0 |= c
	case Biased2:
		// next = c ? 2 : dec(state); dec: 2->1, 1->0.
		// dec planes: s0' = s1 & ~s0 ; s1' = s1 & s0.
		ds0 := f.s1 & ^f.s0
		ds1 := f.s1 & f.s0
		f.s0 = ds0 & ^c // depth 2 = planes (1,0): s0 bit is 0 on change
		f.s1 = ds1&^c | c
	case Biased3:
		// next = c ? 3 : dec(state).
		ds0 := f.s1 & ^f.s0
		ds1 := f.s1 & f.s0
		f.s0 = ds0&^c | c
		f.s1 = ds1&^c | c
	case Standard4:
		// next = c ? incSat(state) : dec(state).
		// inc: s0' = ~s0 | (s1 & s0) ; s1' = s1 | s0 (saturates at 3).
		is0 := ^f.s0 | (f.s1 & f.s0)
		is1 := f.s1 | f.s0
		ds0 := f.s1 & ^f.s0
		ds1 := f.s1 & f.s0
		f.s0 = is0&c | ds0&^c
		f.s1 = is1&c | ds1&^c
	}
	f.prev = v
	return alarms
}

// Reset re-initializes the filter to all-unchanging with previous value
// v (filter replacement in the TCAM).
func (f *Filter) Reset(v uint64) {
	f.prev = v
	f.s1, f.s0 = 0, 0
}

// FlashClear returns every bit to "unchanging" but keeps the previous
// value — PBFS's periodic clear of the sticky counters.
func (f *Filter) FlashClear() {
	f.s1, f.s0 = 0, 0
}

// StateOf returns the scalar state value (0-3) of bit i, for tests and
// diagnostics.
func (f *Filter) StateOf(i uint) uint8 {
	return uint8((f.s1>>i&1)<<1 | f.s0>>i&1)
}

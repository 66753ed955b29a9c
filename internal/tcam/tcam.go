// Package tcam implements FaultHound's inverted filter organization
// (ISCA'15 Section 3.1): a small counting ternary CAM of bit-mask
// filters searched by value, so that similar values cluster into the
// same filter and reinforce its learning. The TCAM carries the
// second-level filter that masks delinquent bit positions (Section 3.2)
// and the per-entry squash state machines that distinguish rename
// faults from false positives (Section 3.4).
package tcam

import (
	"math/bits"

	"faulthound/internal/filter"
)

// Config sizes one TCAM (the paper uses two: one for load/store
// addresses, one for store values).
type Config struct {
	// Entries is the filter count; the paper finds 16-32 sufficient
	// even for commercial workloads (Table 2 uses 32).
	Entries int
	// Policy selects the per-bit state machine (Biased2 in FaultHound).
	Policy filter.Policy
	// LoosenThreshold is the maximum mismatch bit count for which the
	// closest filter is loosened instead of a filter being replaced
	// (the paper uses 4).
	LoosenThreshold int
	// SecondLevel enables the delinquent-bit second-level filter.
	SecondLevel bool
	// SecondLevelStates is the per-bit suppressor state count (8 in the
	// paper: 7 consecutive no-alarms required).
	SecondLevelStates int
	// SecondLevelUnion, when true, trains the second-level filter on
	// the union of all filters' mismatch bits instead of only the
	// closest filter's (an interpretation knob; default false).
	SecondLevelUnion bool
	// SquashMachines enables the per-entry squash state machines.
	SquashMachines bool
	// SquashStates is the squash machine state count (8 in the paper).
	SquashStates int
	// SquashMinMismatch is the minimum mismatch bit count for a trigger
	// to be eligible for squash escalation: a rename fault substitutes
	// a value from a different neighborhood, so its mismatch is wide,
	// while natural drift loosens one or two bits. 0 means
	// LoosenThreshold+1 (replacement-level only).
	SquashMinMismatch int
	// PeriodicClear, if nonzero, flash-clears all filters every that
	// many lookups (PBFS-style; unused by FaultHound).
	PeriodicClear uint64
}

// DefaultConfig returns the paper's Table-2 TCAM configuration.
func DefaultConfig() Config {
	return Config{
		Entries:           32,
		Policy:            filter.Biased2,
		LoosenThreshold:   4,
		SecondLevel:       true,
		SecondLevelStates: 8,
		SquashMachines:    true,
		SquashStates:      8,
		SquashMinMismatch: 3,
	}
}

// Result reports the outcome of one TCAM lookup.
type Result struct {
	// Trigger is true when the value fell outside every filter's
	// neighborhood (a potential fault or a new value neighborhood).
	Trigger bool
	// Suppressed is true when a trigger was masked by the second-level
	// filter (a likely delinquent-bit false positive). A suppressed
	// trigger causes no replay.
	Suppressed bool
	// SquashAllowed is true when the squash state machine of the
	// closest-matching filter identifies a likely rename fault, which
	// requires a full rollback rather than a replay.
	SquashAllowed bool
	// BestIndex is the index of the fully-matching or closest filter.
	BestIndex int
	// MismatchMask holds the mismatching bit positions of the closest
	// filter on a trigger (zero on a match).
	MismatchMask uint64
	// Replaced is true when the lookup installed a new filter in place
	// of an existing one (mismatch count above the loosen threshold).
	Replaced bool
}

// Stats counts TCAM activity for the harness and the energy model.
type Stats struct {
	Lookups      uint64
	Triggers     uint64 // raw first-level triggers
	Suppressed   uint64 // masked by the second-level filter
	Replays      uint64 // triggers that proceed as replays
	Squashes     uint64 // triggers escalated to rollback
	Loosened     uint64
	Replaced     uint64
	FlashClears  uint64
	LearnLookups uint64 // lookups during replay (learn-only)
}

// TCAM is one counting ternary CAM of bit-mask filters. All mutable
// state lives in flat value slices plus a used bitmask, so the TCAM is
// cloned with a few bulk copies and the search loops skip cold entries
// without a branch per slot — Lookup and Probe run on every load,
// store, and store-value check, and detector clones run once per
// injection.
//
// The second-level and squash machines are sm.Suppressor machines
// stored as stamps, so a trigger touches only the machines that take
// part. Each bank counts its trainings, and each machine holds the
// training count from which it is quiet again: a participation at
// training k is allowed iff k >= quiet-from, and sets quiet-from to
// k+states. That equals a Suppressor set to states-1 on participation
// and decremented once per later training, without visiting the
// machines that do not take part.
type TCAM struct {
	cfg     Config
	filters []filter.Filter
	used    uint64 // bit i set = entry i holds a live filter
	age     []uint64
	stamp   uint64
	// secondTrains counts second-level trainings; secondQuiet holds one
	// quiet-from count per bit position (nil when disabled).
	secondTrains uint64
	secondQuiet  []uint64
	// squashTrains and squashQuiet are the same for the squash
	// machines, one per entry.
	squashTrains uint64
	squashQuiet  []uint64
	stats        Stats
	// learnOnly suppresses trigger actions while filters keep learning
	// (FaultHound ignores triggers during replay, Section 3.3).
	learnOnly bool
}

// New creates a TCAM from cfg. Entries is capped at 64 by the used
// bitmask; the paper's design space tops out at 32 (Table 2).
func New(cfg Config) *TCAM {
	if cfg.Entries <= 0 {
		panic("tcam: need at least one entry")
	}
	if cfg.Entries > 64 {
		panic("tcam: at most 64 entries (used bitmask)")
	}
	t := &TCAM{
		cfg:     cfg,
		filters: make([]filter.Filter, cfg.Entries),
		age:     make([]uint64, cfg.Entries),
	}
	for i := range t.filters {
		t.filters[i] = filter.Make(cfg.Policy, 0)
	}
	if cfg.SecondLevel {
		if cfg.SecondLevelStates < 2 {
			panic("tcam: the second-level machines need at least 2 states")
		}
		t.secondQuiet = make([]uint64, 64)
	}
	if cfg.SquashMachines {
		if cfg.SquashStates < 2 {
			panic("tcam: the squash machines need at least 2 states")
		}
		t.squashQuiet = make([]uint64, cfg.Entries)
	}
	return t
}

// Config returns the TCAM configuration.
func (t *TCAM) Config() Config { return t.cfg }

// Stats returns a snapshot of the activity counters.
func (t *TCAM) Stats() Stats { return t.stats }

// SetLearnOnly controls replay-time behavior: when true, lookups update
// the filters but never report triggers (and do not train the
// second-level or squash machines).
func (t *TCAM) SetLearnOnly(v bool) { t.learnOnly = v }

// Lookup searches the TCAM for v, updates the winning filter as part of
// the lookup, and reports the outcome. This is the complete per-value
// operation of Section 3.1, including the second-level filter and
// squash machine decisions.
func (t *TCAM) Lookup(v uint64) Result {
	t.stats.Lookups++
	if t.cfg.PeriodicClear != 0 && t.stats.Lookups%t.cfg.PeriodicClear == 0 {
		t.FlashClear()
	}
	t.stamp++

	// Cold start: install the value in a free entry, no trigger.
	if t.used == 0 {
		t.install(v)
		return Result{BestIndex: 0}
	}

	// Counting-TCAM search over the live entries only (the used mask
	// walks set bits, so cold slots cost nothing) for the
	// closest-matching filter and, if requested, the union of
	// mismatching bits. An exact match ends the search early: no later
	// entry can beat count zero, ties keep the first minimal entry
	// either way, and the union mask is only ever consumed on the
	// trigger path, which an exact match never takes.
	best, bestCount := -1, 65
	bestMask := uint64(0)
	var unionMask uint64
	for m := t.used; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		mask := t.filters[i].Match(v)
		if t.cfg.SecondLevelUnion {
			unionMask |= mask
		}
		n := bits.OnesCount64(mask)
		if n < bestCount {
			best, bestCount, bestMask = i, n, mask
			if n == 0 {
				break
			}
		}
	}

	if bestCount == 0 {
		// Inside a neighborhood: reinforce the winning filter.
		t.filters[best].Observe(v)
		t.age[best] = t.stamp
		return Result{BestIndex: best}
	}

	// Trigger: the value is outside every neighborhood.
	res := Result{Trigger: true, BestIndex: best, MismatchMask: bestMask}

	// Update or replace, as part of the lookup (Figure 3).
	if bestCount <= t.cfg.LoosenThreshold {
		t.filters[best].Observe(v)
		t.age[best] = t.stamp
		t.stats.Loosened++
	} else if free := t.freeEntry(); free >= 0 {
		t.filters[free].Reset(v)
		t.used |= 1 << uint(free)
		t.age[free] = t.stamp
		res.Replaced = true
		res.BestIndex = free
		t.stats.Replaced++
	} else {
		victim := t.lruEntry()
		t.filters[victim].Reset(v)
		t.age[victim] = t.stamp
		res.Replaced = true
		res.BestIndex = victim
		t.stats.Replaced++
	}

	if t.learnOnly {
		// Triggers are ignored during replay to avoid repeated replay
		// triggers; the state machines are not trained either.
		t.stats.LearnLookups++
		res.Trigger = false
		res.MismatchMask = 0
		res.Replaced = false
		return res
	}

	t.stats.Triggers++

	// Second-level filter: the trigger is allowed when the majority of
	// its mismatching bit positions have been quiet. Natural value
	// drift re-offends in the same (delinquent) bit positions and is
	// suppressed; a fault — injected or propagated — mismatches mostly
	// quiet positions and passes (Section 3.2). Every bit's machine is
	// trained regardless: the training count advances for all of them,
	// and only the participating bits' stamps are visited.
	if t.secondQuiet != nil {
		trainMask := bestMask
		if t.cfg.SecondLevelUnion {
			trainMask = unionMask
		}
		t.secondTrains++
		k := t.secondTrains
		rearm := k + uint64(t.cfg.SecondLevelStates)
		quiet, total := 0, 0
		for m := trainMask; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			total++
			if k >= t.secondQuiet[b] {
				quiet++
			}
			t.secondQuiet[b] = rearm
		}
		if quiet*2 <= total {
			res.Suppressed = true
			t.stats.Suppressed++
			return res
		}
	}

	// Squash machines: observed on every replay trigger; the closest
	// filter participating after a quiet run marks a likely rename
	// fault. A rename fault substitutes an unintended value from a
	// different neighborhood, so only replacement-level triggers (far
	// from every filter — a real identity change) can escalate; the
	// small mismatches of natural drift never do.
	if t.squashQuiet != nil {
		minMM := t.cfg.SquashMinMismatch
		if minMM <= 0 {
			minMM = t.cfg.LoosenThreshold + 1
		}
		wide := bits.OnesCount64(bestMask) >= minMM
		t.squashTrains++
		k := t.squashTrains
		allowed := k >= t.squashQuiet[res.BestIndex]
		t.squashQuiet[res.BestIndex] = k + uint64(t.cfg.SquashStates)
		res.SquashAllowed = allowed && wide
	}
	if res.SquashAllowed {
		t.stats.Squashes++
	} else {
		t.stats.Replays++
	}
	return res
}

func (t *TCAM) install(v uint64) {
	t.filters[0].Reset(v)
	t.used |= 1
	t.age[0] = t.stamp
}

func (t *TCAM) freeEntry() int {
	i := bits.TrailingZeros64(^t.used)
	if i >= len(t.filters) {
		return -1
	}
	return i
}

func (t *TCAM) lruEntry() int {
	victim, va := 0, t.age[0]
	for i := 1; i < len(t.age); i++ {
		if t.age[i] < va {
			victim, va = i, t.age[i]
		}
	}
	return victim
}

// Probe searches the TCAM for v without mutating any state: no filter
// updates, no replacement, no state-machine training. It reports
// whether v would trigger and whether the second-level filter would
// suppress that trigger. The commit-time LSQ check uses this (the
// filters already learned the value at completion; re-training them at
// commit would double-count every stable observation and skew the
// delinquent-bit suppressors).
func (t *TCAM) Probe(v uint64) (trigger, suppressed bool) {
	if t.used == 0 || t.learnOnly {
		return false, false
	}
	bestCount := 65
	bestMask := uint64(0)
	for m := t.used; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		mask := t.filters[i].Match(v)
		n := bits.OnesCount64(mask)
		if n < bestCount {
			bestCount, bestMask = n, mask
			if n == 0 {
				// Exact match: no trigger, nothing else to consult.
				return false, false
			}
		}
	}
	if t.secondQuiet != nil {
		// A bit is quiet now iff the next training would allow it.
		next := t.secondTrains + 1
		quiet, total := 0, 0
		for m := bestMask; m != 0; m &= m - 1 {
			total++
			if next >= t.secondQuiet[bits.TrailingZeros64(m)] {
				quiet++
			}
		}
		if quiet*2 <= total {
			return true, true
		}
	}
	return true, false
}

// FlashClear returns every filter's bits to "unchanging" (keeping
// previous values), PBFS-style.
func (t *TCAM) FlashClear() {
	for m := t.used; m != 0; m &= m - 1 {
		t.filters[bits.TrailingZeros64(m)].FlashClear()
	}
	t.stats.FlashClears++
}

// Entry exposes filter i for diagnostics and tests. The pointer is into
// the TCAM's filter bank and is invalidated by CloneInto.
func (t *TCAM) Entry(i int) (f *filter.Filter, used bool) {
	return &t.filters[i], t.used>>uint(i)&1 == 1
}

// CloneInto returns a deep copy of t in dst, reusing dst's slice
// capacity, or in a new TCAM when dst is nil — the per-injection
// snapshot path. With all state in value slices this is four bulk
// copies and no per-entry allocation. Nil slices stay nil: appending to
// a reused dst's empty slice would turn a disabled second-level/squash
// bank (nil in the source) into a non-nil empty one, and the `!= nil`
// feature checks would then index out of range when an arena is reused
// across differently-configured cells.
func (t *TCAM) CloneInto(dst *TCAM) *TCAM {
	if dst == nil {
		dst = &TCAM{}
	}
	filters, age, second, squash := dst.filters, dst.age, dst.secondQuiet, dst.squashQuiet
	*dst = *t
	dst.filters = append(filters[:0], t.filters...)
	dst.age = append(age[:0], t.age...)
	dst.secondQuiet, dst.squashQuiet = nil, nil
	if t.secondQuiet != nil {
		dst.secondQuiet = append(second[:0], t.secondQuiet...)
	}
	if t.squashQuiet != nil {
		dst.squashQuiet = append(squash[:0], t.squashQuiet...)
	}
	return dst
}

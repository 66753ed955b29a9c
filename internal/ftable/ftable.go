// Package ftable implements the PC-indexed, direct-mapped bit-mask
// filter table of PBFS (ISCA'15 Section 2.1). Each entry holds one
// filter (per-bit state machines plus previous value); the entry is
// selected by the checking instruction's PC, so similar values from
// nearby instructions spread over multiple entries — the limitation
// FaultHound's inverted (value-indexed) TCAM organization removes.
//
// The same structure with the biased state machine serves as the
// PBFS-biased baseline and the FH-BE-nocluster ablation of Figure 12.
package ftable

import "faulthound/internal/filter"

// Config sizes one table.
type Config struct {
	// Entries is the direct-mapped entry count (the PBFS paper and the
	// FaultHound comparison use 2K entries per table).
	Entries int
	// Policy selects the per-bit state machine (Sticky for PBFS,
	// Biased2 for PBFS-biased).
	Policy filter.Policy
	// ClearInterval, if nonzero, flash-clears all filters every that
	// many lookups (required for sticky counters to regain coverage).
	ClearInterval uint64
}

// DefaultPBFS returns the configuration of the original PBFS: 2K
// entries of one-bit sticky counters with a periodic flash clear.
func DefaultPBFS() Config {
	return Config{Entries: 2048, Policy: filter.Sticky, ClearInterval: 1 << 18}
}

// DefaultBiased returns PBFS-biased: the same table with the paper's
// biased two-bit state machine and no periodic clear.
func DefaultBiased() Config {
	return Config{Entries: 2048, Policy: filter.Biased2}
}

// Stats counts table activity for the harness and energy model.
type Stats struct {
	Lookups     uint64
	Triggers    uint64
	Installs    uint64 // first-touch initializations
	FlashClears uint64
}

// Table is one PC-indexed filter table.
type Table struct {
	cfg     Config
	filters []filter.Filter
	used    []bool
	stats   Stats
}

// New creates a table from cfg.
func New(cfg Config) *Table {
	if cfg.Entries <= 0 {
		panic("ftable: need at least one entry")
	}
	t := &Table{
		cfg:     cfg,
		filters: make([]filter.Filter, cfg.Entries),
		used:    make([]bool, cfg.Entries),
	}
	for i := range t.filters {
		t.filters[i] = filter.Make(cfg.Policy, 0)
	}
	return t
}

// Config returns the table configuration.
func (t *Table) Config() Config { return t.cfg }

// Stats returns a snapshot of the counters.
func (t *Table) Stats() Stats { return t.stats }

// Lookup checks value v against the filter selected by pc and updates
// it as part of the lookup. It returns whether the value fell outside
// the entry's neighborhood (a trigger) and the mismatching bit mask.
func (t *Table) Lookup(pc, v uint64) (trigger bool, mismatch uint64) {
	t.stats.Lookups++
	if t.cfg.ClearInterval != 0 && t.stats.Lookups%t.cfg.ClearInterval == 0 {
		t.FlashClear()
	}
	i := int(pc % uint64(t.cfg.Entries))
	f := &t.filters[i]
	if !t.used[i] {
		f.Reset(v)
		t.used[i] = true
		t.stats.Installs++
		return false, 0
	}
	mismatch = f.Match(v)
	f.Observe(v)
	if mismatch != 0 {
		t.stats.Triggers++
		return true, mismatch
	}
	return false, 0
}

// FlashClear resets every filter's bits to "unchanging", keeping
// previous values (PBFS's periodic clear).
func (t *Table) FlashClear() {
	for i := range t.filters {
		if t.used[i] {
			t.filters[i].FlashClear()
		}
	}
	t.stats.FlashClears++
}

// CloneInto returns a deep copy of t in dst, reusing dst's slice
// capacity, or in a new table when dst is nil — the per-injection
// snapshot path. The filter bank is a value slice, so this is two bulk
// copies and no per-entry allocation.
func (t *Table) CloneInto(dst *Table) *Table {
	if dst == nil {
		dst = &Table{}
	}
	filters, used := dst.filters, dst.used
	*dst = *t
	dst.filters = append(filters[:0], t.filters...)
	dst.used = append(used[:0], t.used...)
	return dst
}

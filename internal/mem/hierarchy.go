package mem

// HierarchyConfig is the Table-2 cache geometry of the paper.
type HierarchyConfig struct {
	LineBytes int

	L1ISizeBytes int
	L1IWays      int
	L1ILatency   int

	L1DSizeBytes int
	L1DWays      int
	L1DLatency   int

	L2SizeBytes int
	L2Ways      int
	L2Latency   int

	MemLatency int

	TLBEntries    int
	PageBytes     int
	TLBMissCycles int
}

// DefaultHierarchyConfig returns the paper's Table-2 parameters:
// 32 KB 2-way L1 I and D at 3 cycles, 2 MB 4-way L2 at 20 cycles,
// 64-entry I/D TLBs.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		LineBytes:     64,
		L1ISizeBytes:  32 << 10,
		L1IWays:       2,
		L1ILatency:    3,
		L1DSizeBytes:  32 << 10,
		L1DWays:       2,
		L1DLatency:    3,
		L2SizeBytes:   2 << 20,
		L2Ways:        4,
		L2Latency:     20,
		MemLatency:    200,
		TLBEntries:    64,
		PageBytes:     8 << 10,
		TLBMissCycles: 30,
	}
}

// Hierarchy is the per-core timing model: private L1 I/D, private L2,
// and I/D TLBs, as in Table 2.
type Hierarchy struct {
	cfg  HierarchyConfig
	l1i  *Cache
	l1d  *Cache
	l2   *Cache
	itlb *TLB
	dtlb *TLB
	// sh folds every access (address and direction) into a running
	// stream tag. Two hierarchies that started equal and carry equal
	// tags have seen the same access sequence and therefore hold equal
	// cache/TLB state — the reconvergence digest compares tags instead
	// of walking tag arrays.
	sh uint64
}

// NewHierarchy builds a hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		cfg:  cfg,
		l1i:  NewCache("l1i", cfg.L1ISizeBytes, cfg.L1IWays, cfg.LineBytes),
		l1d:  NewCache("l1d", cfg.L1DSizeBytes, cfg.L1DWays, cfg.LineBytes),
		l2:   NewCache("l2", cfg.L2SizeBytes, cfg.L2Ways, cfg.LineBytes),
		itlb: NewTLB(cfg.TLBEntries, cfg.PageBytes),
		dtlb: NewTLB(cfg.TLBEntries, cfg.PageBytes),
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// foldStream mixes one access into the stream tag.
func (h *Hierarchy) foldStream(x uint64) {
	x ^= h.sh
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	h.sh = x
}

// StreamTag returns the access-stream fingerprint.
func (h *Hierarchy) StreamTag() uint64 { return h.sh }

// AccessI returns the latency of an instruction fetch at addr.
func (h *Hierarchy) AccessI(addr uint64) int {
	h.foldStream(addr<<2 | 1)
	lat := h.cfg.L1ILatency
	if !h.itlb.Access(addr) {
		lat += h.cfg.TLBMissCycles
	}
	if h.l1i.Access(addr) {
		return lat
	}
	if h.l2.Access(addr) {
		return lat + h.cfg.L2Latency
	}
	return lat + h.cfg.L2Latency + h.cfg.MemLatency
}

// AccessD returns the latency of a data access at addr and whether it
// hit in the L1 D cache (the condition that avoids a conventional load
// replay).
func (h *Hierarchy) AccessD(addr uint64, write bool) (latency int, l1Hit bool) {
	tag := addr << 2
	if write {
		tag |= 2
	}
	h.foldStream(tag)
	lat := h.cfg.L1DLatency
	if !h.dtlb.Access(addr) {
		lat += h.cfg.TLBMissCycles
	}
	if h.l1d.Access(addr) {
		return lat, true
	}
	if h.l2.Access(addr) {
		return lat + h.cfg.L2Latency, false
	}
	return lat + h.cfg.L2Latency + h.cfg.MemLatency, false
}

// Stats exposes the raw cache/TLB counters.
type HierarchyStats struct {
	L1IAccesses, L1IMisses uint64
	L1DAccesses, L1DMisses uint64
	L2Accesses, L2Misses   uint64
	ITLBMisses, DTLBMisses uint64
}

// Stats returns a snapshot of the access counters.
func (h *Hierarchy) Stats() HierarchyStats {
	return HierarchyStats{
		L1IAccesses: h.l1i.Accesses(), L1IMisses: h.l1i.Misses,
		L1DAccesses: h.l1d.Accesses(), L1DMisses: h.l1d.Misses,
		L2Accesses: h.l2.Accesses(), L2Misses: h.l2.Misses,
		ITLBMisses: h.itlb.Misses, DTLBMisses: h.dtlb.Misses,
	}
}

// SetBaseline freezes h and registers base's L2 as the delta-clone
// anchor for h's L2 (Cache.SetBaseline). Only the L2 is worth
// journaling: its tag store is two orders of magnitude larger than the
// L1s' and sees two orders of magnitude fewer accesses, so a per-run
// restore rewrites a few hundred lines instead of half a megabyte.
func (h *Hierarchy) SetBaseline(base *Hierarchy) {
	h.l2.SetBaseline(base.l2)
}

// CloneInto returns a deep copy of h in dst, reusing dst's tag
// storage, or in a new hierarchy when dst is nil. dst is typically a
// previous copy of the same hierarchy.
func (h *Hierarchy) CloneInto(dst *Hierarchy) *Hierarchy {
	if dst == nil {
		dst = &Hierarchy{}
	}
	dst.cfg = h.cfg
	dst.sh = h.sh
	dst.l1i = h.l1i.CloneInto(dst.l1i)
	dst.l1d = h.l1d.CloneInto(dst.l1d)
	dst.l2 = h.l2.CloneInto(dst.l2)
	dst.itlb = h.itlb.CloneInto(dst.itlb)
	dst.dtlb = h.dtlb.CloneInto(dst.dtlb)
	return dst
}

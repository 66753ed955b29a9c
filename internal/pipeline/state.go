package pipeline

import (
	"math/bits"

	"faulthound/internal/isa"
)

// ArchRegs returns the architectural register values of thread tid
// through its architectural RAT.
func (c *Core) ArchRegs(tid int) [isa.NumArchRegs]uint64 {
	var out [isa.NumArchRegs]uint64
	t := c.threads[tid]
	for r := range out {
		out[r] = c.rf.read(t.aRAT[r])
	}
	out[isa.RZero] = 0
	return out
}

// LiveArchRegs is ArchRegs restricted to registers the program has
// committed a write to; never-written registers read as zero. Tandem
// state comparison uses this view so that a fault parked in dead
// initial state does not count as program corruption.
func (c *Core) LiveArchRegs(tid int) [isa.NumArchRegs]uint64 {
	out := c.ArchRegs(tid)
	t := c.threads[tid]
	for r := range out {
		if t.writtenRegs>>uint(r)&1 == 0 {
			out[r] = 0
		}
	}
	return out
}

// ArchHash folds thread tid's architectural registers and the shared
// memory image into a fingerprint for tandem state comparison.
func (c *Core) ArchHash(tid int) uint64 {
	h := c.memory.Hash()
	regs := c.LiveArchRegs(tid)
	for i, v := range regs {
		x := uint64(i+1)*0x9e3779b97f4a7c15 ^ v
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		h ^= x
	}
	return h
}

// --- Fault injection sites (Section 4 of the paper) ---

// PhysRegs returns the size of the physical register file, integer
// and FP together; register 0 is the shared zero register.
func (c *Core) PhysRegs() int { return len(c.rf.val) }

// FlipRegisterBit flips one bit of a physical register value. It
// reports false for the zero register or an out-of-range id.
func (c *Core) FlipRegisterBit(p uint16, bit uint) bool {
	if p == 0 || int(p) >= len(c.rf.val) {
		return false
	}
	c.schedTouch()
	c.rf.val[p] ^= 1 << (bit & 63)
	return true
}

// InFlightDestRegs returns the destination physical registers of
// instructions currently in flight (dispatched through completed, not
// yet committed) — the population that emulates faults in the back-end
// datapath (FU outputs, bypass latches), which land on young values.
// It appends them to dst[:0], reusing dst's storage; a nil dst
// allocates.
func (c *Core) InFlightDestRegs(dst []uint16) []uint16 {
	out := dst[:0]
	for _, t := range c.threads {
		for _, u := range t.rob {
			if u.dst != physNone && u.state != stCommitted && u.state != stSquashed {
				out = append(out, uint16(u.dst))
			}
		}
	}
	return out
}

// LSQField selects which LSQ-held datum a fault flips.
type LSQField uint8

// LSQ fault fields.
const (
	LSQAddr LSQField = iota
	LSQData          // store value
)

// LSQSite describes an occupiable LSQ injection target.
type LSQSite struct {
	Thread  int
	Index   int // position in the thread's LSQ
	IsStore bool
}

// LSQSites returns the LSQ entries whose address (and, for stores,
// value) have been computed but not yet committed — the population for
// LSQ fault injection. It appends them to dst[:0], reusing dst's
// storage; a nil dst allocates.
func (c *Core) LSQSites(dst []LSQSite) []LSQSite {
	out := dst[:0]
	for _, t := range c.threads {
		for i, u := range t.lsq {
			if u.state == stCompleted {
				out = append(out, LSQSite{Thread: t.id, Index: i, IsStore: u.isStore()})
			}
		}
	}
	return out
}

// FlipLSQBit flips one bit of an LSQ entry's address or store value. It
// reports whether the site was valid.
func (c *Core) FlipLSQBit(site LSQSite, field LSQField, bit uint) bool {
	t := c.threads[site.Thread]
	if site.Index >= len(t.lsq) {
		return false
	}
	c.schedTouch()
	u := t.lsq[site.Index]
	if u.state != stCompleted {
		return false
	}
	switch field {
	case LSQAddr:
		u.effAddr ^= 1 << (bit & 63)
	case LSQData:
		if !u.isStore() {
			return false
		}
		u.storeVal ^= 1 << (bit & 63)
	}
	return true
}

// FlipRATBit flips one bit of thread tid's speculative rename-table
// entry for architectural register r, wrapping within the register
// class so the corrupted tag still names a physical register (as a real
// rename tag would). It reports whether the flip was applied.
func (c *Core) FlipRATBit(tid int, r isa.Reg, bit uint) bool {
	if r == isa.RZero || !r.Valid() {
		return false
	}
	c.schedTouch()
	t := c.threads[tid]
	classBase, classSize := 0, c.cfg.IntPhysRegs
	if r.IsFP() {
		classBase, classSize = c.cfg.IntPhysRegs, c.cfg.FPPhysRegs
	}
	tagBits := uint(bits.Len(uint(classSize - 1)))
	local := uint64(int(t.rat[r]) - classBase)
	local ^= 1 << (bit % tagBits)
	local %= uint64(classSize)
	t.rat[r] = physID(classBase + int(local))
	return true
}

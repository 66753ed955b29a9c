package pipeline

import "math"

// StateDigest is a reconvergence fingerprint of one core at one cycle.
// The fault runner captures digests of the golden trace at a fixed
// cadence during Prepare; after an injection it compares the faulty
// clone against the digest for the same cycle and, on a match, declares
// the fault masked without simulating the rest of the window
// (divergence-bounded replay). The digest covers every piece of state
// that decides the core's future, and nothing else: the pipeline and
// detector counters only accumulate, so a matching run's counters may
// differ from golden's by an offset, which the runner carries to the
// end of the window.
//
// A match is an equality proof in three stages, cheapest-to-fail
// first:
//
//  1. Stream scalars: cycle, the global seq counter, the detector
//     interaction stream (every interaction that can change the
//     detector's state: a commit check that only probes the filters is
//     left out, see detStream), the O(1) memory hash, and the cache
//     hierarchy's access-stream tag. Any divergence in control flow,
//     memory contents, or detector state lands here within a few word
//     compares.
//  2. The physical register file, element by element against a full
//     copy of the golden values. A mismatched register is tolerated
//     only when it is provably dead in the current core (see
//     regProvablyDead): no in-flight uop operand and no rename entry of
//     a named register references it, and it is either on a free list
//     or held only by rename entries of registers the program never
//     names. A free register is overwritten at its next allocation
//     before any read can reach it; a register held only by unnamed
//     registers is never read, never freed and never reallocated.
//     Either way its value cannot influence future behavior (and the
//     architectural hash reads only registers the program has written,
//     so it cannot leak into the final comparison either).
//  3. A structural fold of everything else: per-thread scalars and
//     the rename entries of named registers (RAT, architectural RAT,
//     and every uop's RAT checkpoint), every in-flight uop's full
//     contents, the positional IQ/LSQ/delay-buffer/executing-set
//     ordering, free lists, ready bits, and MSHR timing. An unnamed
//     register's entries are left out: no instruction reads or
//     redefines the register, so its entry is never used to rename,
//     and rollback, exception recovery and checkpoint restore only
//     copy it from one table to another.
//
// Stages 1 and 3 are hash compares, so a match is "equal with
// overwhelming probability" rather than a bitwise proof — the same
// standing as the ArchHash comparison the classifier already rests on.
type StateDigest struct {
	Cycle     uint64
	Seq       uint64
	DetStream uint64
	MemHash   uint64
	HierTag   uint64
	// Regs is a full copy of the physical register file values, kept
	// elementwise so MatchesDigest can apply the dead-register
	// allowance instead of failing on a hash of the whole file.
	Regs       []uint64
	StructHash uint64
}

// CaptureDigest records the core's digest at the current cycle. It
// allocates (the register-file copy) and is meant for the golden trace
// during Prepare, not for per-injection hot paths.
func (c *Core) CaptureDigest() StateDigest {
	return StateDigest{
		Cycle:      c.cycle,
		Seq:        c.seq,
		DetStream:  c.detStream,
		MemHash:    c.memory.Hash(),
		HierTag:    c.hier.StreamTag(),
		Regs:       append([]uint64(nil), c.rf.val...),
		StructHash: c.structFold(),
	}
}

// MatchesDigest reports whether the core's state at the current cycle
// provably matches d (see StateDigest). It allocates nothing.
func (c *Core) MatchesDigest(d *StateDigest) bool {
	if c.cycle != d.Cycle || c.seq != d.Seq || c.detStream != d.DetStream ||
		c.memory.Hash() != d.MemHash || c.hier.StreamTag() != d.HierTag {
		return false
	}
	if len(c.rf.val) != len(d.Regs) {
		return false
	}
	for p, v := range c.rf.val {
		if v != d.Regs[p] && !c.regProvablyDead(physID(p)) {
			return false
		}
	}
	return c.structFold() == d.StructHash
}

// regProvablyDead reports whether physical register p can never be
// read again, so a flip in it cannot change the run. It rejects p when
// an in-flight uop's operand (destination, previous mapping or source)
// or a named register's RAT, architectural-RAT or RAT-checkpoint entry
// references it. Otherwise it accepts p when p is free or when
// entries of unnamed registers (named is the thread's mask) hold it.
//
// Why the second case is sound: no instruction reads or redefines an
// unnamed register, so no rename ever sources its physical register,
// and no commit or squash ever frees it; rollback, exception recovery
// and checkpoint restore only copy its entry between tables. The
// architectural hash zeroes the register (LiveArchRegs covers only
// written registers, and it is never written). The detectors see only
// the load/store operand stream (detect.Detector), which never carries
// the value. Golden digests (CaptureDigest) and faulty checks go
// through the same rule and the same structFold.
//
// Called only for a value mismatch, so the O(rob) scans run a handful
// of times per digest check at most.
func (c *Core) regProvablyDead(p physID) bool {
	held := false
	// named reports whether a rename table indexed by architectural
	// register (a RAT, an architectural RAT or a RAT checkpoint)
	// references p through a named register's entry, and notes a
	// reference through an unnamed one in held.
	named := func(tab []physID, mask uint64) bool {
		for r, q := range tab {
			if q == p {
				if mask>>uint(r)&1 != 0 {
					return true
				}
				held = true
			}
		}
		return false
	}
	refs := func(u *uop, mask uint64) bool {
		if u.dst == p || u.oldDst == p {
			return true
		}
		for i := 0; i < u.nsrc; i++ {
			if u.src[i] == p {
				return true
			}
		}
		return named(u.ratCkpt, mask)
	}
	for _, t := range c.threads {
		if named(t.rat, t.named) || named(t.aRAT, t.named) {
			return false
		}
		for _, u := range t.rob.s {
			if refs(u, t.named) {
				return false
			}
		}
		for _, u := range t.fetchQ.s {
			if refs(u, t.named) {
				return false
			}
		}
	}
	return held || c.rf.isFree(p)
}

// structFold hashes every piece of core state not covered by the
// digest's scalar and register-file stages: thread scalars, the rename
// entries of named registers, in-flight uop contents, queue orderings,
// free lists, ready bits, and MSHR/stall/shadow bookkeeping.
func (c *Core) structFold() uint64 {
	h := uint64(0x5f4bf2c7a9d3e681)
	fold := func(x uint64) {
		h = mixDet(x ^ h)
	}
	foldBool := func(b bool) {
		if b {
			fold(3)
		} else {
			fold(5)
		}
	}
	// foldRenames folds a rename table's named entries; mask is the
	// owning thread's named-register mask.
	foldRenames := func(tab []physID, mask uint64) {
		for r, q := range tab {
			if mask>>uint(r)&1 != 0 {
				fold(uint64(q))
			}
		}
	}
	foldUop := func(u *uop, mask uint64) {
		fold(u.seq)
		fold(uint64(u.thread)<<32 | uint64(u.state)<<24 | uint64(uint8(u.nsrc))<<16 | uint64(uint8(u.lsqIndex&0xff))<<8)
		fold(u.pc)
		fold(uint64(u.dst)<<32 | uint64(u.oldDst)<<16 | uint64(u.src[0]))
		fold(uint64(u.src[1]))
		h = u.pred.Fold(h)
		fold(u.predPC)
		var flags uint64
		for i, b := range [...]bool{u.isCall, u.isRet, u.excepted, u.taken,
			u.rmwDone, u.inDelayBuf, u.replaying, u.replayed, u.shadow, u.halt, u.inIQ} {
			if b {
				flags |= 1 << i
			}
		}
		fold(flags)
		fold(u.result)
		fold(u.effAddr)
		fold(u.storeVal)
		fold(u.target)
		fold(u.readyAt)
		fold(u.completeAt)
		foldRenames(u.ratCkpt, mask)
		fold(uint64(len(u.ratCkpt)))
	}

	for _, t := range c.threads {
		fold(t.pc)
		fold(t.aPC)
		fold(t.committed)
		fold(t.writtenRegs)
		fold(t.archHistory)
		fold(t.exemptUntil)
		fold(t.fetchBlockedUntil)
		fold(t.pred.StreamTag())
		foldBool(t.halted)
		foldBool(t.fetchStopped)
		foldBool(t.excepted)
		foldRenames(t.rat, t.named)
		foldRenames(t.aRAT, t.named)
		fold(uint64(len(t.fetchQ.s)))
		for _, u := range t.fetchQ.s {
			foldUop(u, t.named)
		}
		fold(uint64(len(t.rob.s)))
		for _, u := range t.rob.s {
			foldUop(u, t.named)
		}
		// LSQ/IQ/delay-buffer/executing-set entries alias ROB uops whose
		// contents are folded above; here only membership and order
		// matter, keyed by the globally unique seq.
		fold(uint64(len(t.lsq.s)))
		for _, u := range t.lsq.s {
			fold(u.seq)
		}
	}
	fold(uint64(c.iqUsed))
	for i, u := range c.iq {
		if u != nil {
			fold(uint64(i)<<32 ^ u.seq)
		}
	}
	fold(uint64(len(c.inFlight)))
	for _, u := range c.inFlight {
		fold(u.seq)
	}
	fold(uint64(len(c.delayBuf.s)))
	for _, u := range c.delayBuf.s {
		fold(u.seq)
	}
	for _, r := range c.rf.ready {
		foldBool(r)
	}
	fold(uint64(len(c.rf.freeInt)))
	for _, q := range c.rf.freeInt {
		fold(uint64(q))
	}
	fold(uint64(len(c.rf.freeFP)))
	for _, q := range c.rf.freeFP {
		fold(uint64(q))
	}
	fold(uint64(len(c.mshrFree)))
	for _, v := range c.mshrFree {
		fold(v)
	}
	fold(uint64(c.replayPending)<<32 | uint64(uint32(c.commitStall)))
	fold(uint64(c.shadowPending))
	fold(math.Float64bits(c.shadowAcc))
	return h
}

package pipeline

import (
	"math/bits"

	"faulthound/internal/detect"
	"faulthound/internal/isa"
)

// sortBySeq orders uops by their globally-unique age tag with an
// insertion sort: the per-cycle candidate and completion sets are small
// and nearly sorted already (gathered in rough age order), and unlike
// sort.Slice this allocates nothing.
func sortBySeq(us []*uop) {
	for i := 1; i < len(us); i++ {
		u := us[i]
		j := i - 1
		for j >= 0 && us[j].seq > u.seq {
			us[j+1] = us[j]
			j--
		}
		us[j+1] = u
	}
}

// issue selects up to IssueWidth ready instructions (oldest first),
// reads their operands, executes them functionally, and schedules their
// completion. Leftover issue slots drain pending SRT-iso shadow ops.
func (c *Core) issue() {
	// Gather ready candidates from the IQ in age order — unless the
	// previous gather came up empty and nothing since could have
	// created a candidate (schedClean), in which case the scan would
	// provably find nothing and is skipped. The stalled cycles of a
	// long cache miss reduce to this no-op.
	cand := c.issueScratch[:0]
	if !c.schedClean {
		// Memoize each thread's oldest incomplete store/atomic once per
		// cycle: the LSQ is seq-ascending, so the per-load
		// olderStoresDone scan collapses to one compare against it.
		for _, t := range c.threads {
			t.schedMinStore = ^uint64(0)
			for _, s := range t.lsq.s {
				if (s.isStore() || s.inst.IsAtomic()) && s.state != stCompleted && s.state != stCommitted {
					t.schedMinStore = s.seq
					break
				}
			}
		}
		// Source readiness is event-driven (iqReady, maintained by
		// schedWake and friends): entries stalled on a long-latency
		// producer cost nothing here, cycle after cycle. Only the
		// per-cycle conditions — store ordering and ROB-head atomics
		// — are tested in the loop.
		for m := c.iqDisp & c.iqReady; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			e := &c.iqSched[i]
			// Loads wait for every older same-thread store to have
			// computed its address and value (no memory-order
			// speculation): one compare against the per-thread memo.
			// seq == schedMinStore only when the entry is that
			// store/atomic itself.
			if e.load && c.threads[e.thread].schedMinStore < e.seq {
				continue
			}
			// Atomics execute non-speculatively: only at the head of their
			// thread's ROB (everything older has committed).
			if e.atomic {
				rob := c.threads[e.thread].rob.s
				if len(rob) == 0 || rob[0] != c.iq[i] {
					continue
				}
			}
			cand = append(cand, c.iq[i])
		}
		c.schedClean = len(cand) == 0
	}
	c.issueScratch = cand
	sortBySeq(cand)

	budget := c.cfg.IssueWidth
	// SRT-iso trailing copies contend for issue bandwidth as co-equal
	// threads: when redundant work is pending, it claims up to half the
	// issue width ahead of the leading threads.
	alu, mul, fpu, memPorts := c.cfg.NumALU, c.cfg.NumMul, c.cfg.NumFPU, c.cfg.NumMemPorts
	if c.shadowPending > 0 {
		take := c.cfg.IssueWidth / 2
		if take > c.shadowPending {
			take = c.shadowPending
		}
		c.shadowPending -= take
		c.stats.ShadowOps += uint64(take)
		budget -= take
		alu -= take // redundant copies occupy functional units too
		if alu < 0 {
			alu = 0
		}
	}
	for _, u := range cand {
		if budget == 0 {
			break
		}
		switch u.fuClass() {
		case isa.ClassIntALU, isa.ClassBranch, isa.ClassNop:
			if alu == 0 {
				continue
			}
			alu--
		case isa.ClassIntMul:
			if mul == 0 {
				continue
			}
			mul--
		case isa.ClassFP:
			if fpu == 0 {
				continue
			}
			fpu--
		case isa.ClassLoad, isa.ClassStore, isa.ClassAtomic:
			if memPorts == 0 || alu == 0 {
				continue
			}
			memPorts--
			alu-- // address generation
		}
		budget--
		c.issueOne(u)
	}

	// Idle slots execute SRT-iso shadow copies (idealized redundant
	// instructions: no registers, no cache misses, just bandwidth).
	for budget > 0 && c.shadowPending > 0 {
		budget--
		c.shadowPending--
		c.stats.ShadowOps++
	}
}

// issueOne reads operands, executes u functionally, and schedules its
// completion.
func (c *Core) issueOne(u *uop) {
	u.state = stIssued
	c.iqDisp &^= 1 << uint(u.iqSlot)
	c.stats.Issued++
	c.trace(TraceIssue, u, "")
	c.stats.IssuedByClass[u.fuClass()]++
	c.stats.RegReads += uint64(u.nsrc)

	var s1, s2 uint64
	// Map renamed sources back to the Exec operand positions: src[0] is
	// always Rs1, src[1] (when present) is Rs2.
	if u.nsrc > 0 {
		s1 = c.rf.read(u.src[0])
	}
	if u.nsrc > 1 {
		s2 = c.rf.read(u.src[1])
	}
	out := isa.Exec(u.inst, u.pc, s1, s2)
	lat := uint64(isa.Latency(u.inst.Op))

	switch {
	case u.isLoad():
		u.effAddr = out.EffAddr
		if !c.memory.Mapped(u.effAddr) {
			u.excepted = true
			u.exceptMsg = "load translation exception"
			u.completeAt = c.cycle + lat + 1
			break
		}
		if v, ok := c.forward(u); ok {
			u.result = v
			u.completeAt = c.cycle + lat + uint64(c.cfg.Hierarchy.L1DLatency)
		} else {
			dlat, l1Hit := c.hier.AccessD(u.effAddr, false)
			v, _ := c.memory.Read(u.effAddr)
			u.result = v
			start := c.cycle + lat
			if !l1Hit {
				start = c.allocMSHR(start, uint64(dlat))
			}
			u.completeAt = start + uint64(dlat)
		}
	case u.inst.IsAtomic():
		u.effAddr = out.EffAddr
		u.storeVal = out.Value
		if !c.memory.Mapped(u.effAddr) {
			u.excepted = true
			u.exceptMsg = "atomic translation exception"
			u.completeAt = c.cycle + lat + 1
			break
		}
		// Everything older has committed (ROB-head issue), so the
		// read-modify-write applies directly and atomically.
		old, _ := c.memory.Read(u.effAddr)
		nv := u.storeVal
		if u.inst.Op == isa.AMOADD {
			nv = old + u.storeVal
		}
		c.memory.Write(u.effAddr, nv)
		u.result = old
		u.rmwDone = true
		dlat, _ := c.hier.AccessD(u.effAddr, true)
		u.completeAt = c.cycle + lat + uint64(dlat)
	case u.isStore():
		u.effAddr = out.EffAddr
		u.storeVal = out.Value
		if !c.memory.Mapped(u.effAddr) {
			u.excepted = true
			u.exceptMsg = "store translation exception"
		}
		u.completeAt = c.cycle + lat + 1
	case u.inst.IsBranch():
		u.taken = out.Taken
		u.target = out.Target
		u.result = out.Value // link value for JAL/JALR
		u.completeAt = c.cycle + lat
	default:
		u.result = out.Value
		u.completeAt = c.cycle + lat
	}
	c.inFlight = append(c.inFlight, u)
}

// allocMSHR reserves a miss-status register for a miss wanting to
// start at cycle `want`, returning the actual start cycle (delayed when
// all MSHRs are busy).
func (c *Core) allocMSHR(want, latency uint64) uint64 {
	if c.cfg.MSHRs <= 0 {
		return want
	}
	if c.mshrFree == nil {
		c.mshrFree = make([]uint64, c.cfg.MSHRs)
	}
	best := 0
	for i, f := range c.mshrFree {
		if f < c.mshrFree[best] {
			best = i
		}
	}
	start := want
	if c.mshrFree[best] > start {
		start = c.mshrFree[best]
	}
	// The MSHR is occupied until the fill returns.
	c.mshrFree[best] = start + latency
	return start
}

// forward searches the thread's LSQ for the youngest older completed
// store to the same address (store-to-load forwarding).
func (c *Core) forward(u *uop) (uint64, bool) {
	lsq := c.threads[u.thread].lsq.s
	for i := len(lsq) - 1; i >= 0; i-- {
		s := lsq[i]
		if s.seq >= u.seq || !s.isStore() {
			continue
		}
		if s.state == stCompleted && s.effAddr == u.effAddr {
			return s.storeVal, true
		}
	}
	return 0, false
}

// complete finishes execution for every uop whose latency expires this
// cycle: write back, resolve branches, run the detector's completion
// checks, and manage the delay buffer.
func (c *Core) complete() {
	if len(c.inFlight) == 0 {
		return
	}
	done := c.doneScratch[:0]
	rest := c.inFlight[:0]
	for _, u := range c.inFlight {
		if u.state == stSquashed {
			continue // dropped by a squash while executing
		}
		if u.completeAt <= c.cycle {
			done = append(done, u)
		} else {
			rest = append(rest, u)
		}
	}
	c.inFlight = rest
	c.doneScratch = done
	sortBySeq(done)

	for _, u := range done {
		// An older instruction completing this same cycle may have
		// squashed u (branch misprediction or detector rollback).
		if u.state == stSquashed {
			continue
		}
		c.completeOne(u)
	}
}

func (c *Core) completeOne(u *uop) {
	c.schedTouch() // a write can wake a consumer; a store completion can unblock a load
	u.state = stCompleted
	c.stats.Completed++
	c.trace(TraceComplete, u, "")

	if u.dst != physNone {
		c.rf.write(u.dst, u.result)
		c.schedWake(u.dst)
		c.stats.RegWrites++
	}

	// Replay bookkeeping must run before checks so the learn-only flag
	// clears when the last replayed instruction finishes.
	if u.replaying {
		u.replaying = false
		u.replayed = true
		c.stats.ReplayedUops++
		c.replayPending--
		if c.replayPending == 0 {
			c.detSetLearnOnly(false)
		}
	}

	if u.inst.IsBranch() {
		c.resolveBranch(u)
		if u.state == stSquashed {
			return // squashed itself? (cannot happen: squashAfter squashes younger only)
		}
	}

	// Detector completion checks for loads and stores (Section 3.3).
	// Replayed and rollback-re-executed values are deemed final: the
	// filters keep learning from them but their triggers are ignored.
	if u.isMem() && !u.excepted {
		if u.replayed || c.isExempt(u) {
			if c.detector != nil {
				c.detSetLearnOnly(true)
				c.checkComplete(u)
				if c.replayPending == 0 {
					c.detSetLearnOnly(false)
				}
			}
		} else if act := c.checkComplete(u); act != detect.None {
			switch act {
			case detect.Replay:
				c.trace(TraceReplay, u, "detector trigger")
				c.triggerReplay(u)
			case detect.Rollback:
				c.trace(TraceRollback, u, "detector trigger")
				c.fullSquash(u)
				return // u itself was squashed by the rollback
			}
		}
	}

	if u.state != stCompleted {
		return // went back to dispatched for replay, or squashed
	}

	// Delay buffer: completed instructions linger in the IQ for
	// potential predecessor replay (delayed exit, Section 3.3).
	// Atomics are excluded: their read-modify-write cannot be
	// re-executed.
	if u.inst.IsAtomic() {
		c.iqRemove(u)
		return
	}
	if c.cfg.DelayBuffer > 0 && u.inIQ {
		c.delayBuf.push(u)
		u.inDelayBuf = true
		if len(c.delayBuf.s) > c.cfg.DelayBuffer {
			old := c.delayBuf.pop()
			old.inDelayBuf = false
			c.iqRemove(old)
			c.stats.DelayBufEvictions++
		}
	} else {
		c.iqRemove(u)
	}
}

// resolveBranch trains the predictor and recovers from mispredictions.
func (c *Core) resolveBranch(u *uop) {
	t := c.threads[u.thread]
	actualNext := u.pc + 1
	if u.taken {
		actualNext = u.target
	}
	cond := u.inst.IsCondBranch()
	switch u.inst.Op {
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		t.pred.Update(u.pc, u.pred, u.taken, u.target, true)
	case isa.JALR:
		t.pred.Update(u.pc, u.pred, true, u.target, false)
	}
	if actualNext != u.predPC {
		c.stats.BranchMispredicts++
		if cond {
			t.pred.RecoverMispredict(u.pred, u.taken)
		}
		c.squashAfter(u)
		t.pc = actualNext
		u.predPC = actualNext // a replayed branch must not re-squash
	}
}

// isExempt reports whether u's value is deemed final because it will
// commit within the exempt prefix of a prior rollback. The position is
// computed from the ROB so wrong-path fetches cannot skew it.
func (c *Core) isExempt(u *uop) bool {
	t := c.threads[u.thread]
	if t.exemptUntil <= t.committed {
		return false
	}
	for i, e := range t.rob.s {
		if e == u {
			return t.committed+uint64(i)+1 <= t.exemptUntil
		}
	}
	return false
}

// checkComplete runs the probe and the detector's completion checks for
// a memory uop and returns the strongest requested action.
func (c *Core) checkComplete(u *uop) detect.Action {
	act := c.checkCompleteEvent(loadOrStoreAddrEvent(u))
	if u.isStore() {
		if a := c.checkCompleteEvent(storeValueEvent(u)); a > act {
			act = a
		}
	}
	return act
}

func (c *Core) checkCompleteEvent(ev detect.Event) detect.Action {
	if c.probe != nil {
		c.probe(ev)
	}
	if c.detector == nil {
		return detect.None
	}
	return c.detOnComplete(ev)
}

// loadOrStoreAddrEvent and storeValueEvent build the checked-operand
// events for a load or store. Events are passed by value, so the
// completion and commit check paths stay allocation-free — they run for
// every load and store of every simulated cycle.
func loadOrStoreAddrEvent(u *uop) detect.Event {
	k := detect.StoreAddr
	if u.isLoad() {
		k = detect.LoadAddr
	}
	return detect.Event{Kind: k, Value: u.effAddr, PC: u.pc, Thread: u.thread}
}

func storeValueEvent(u *uop) detect.Event {
	return detect.Event{Kind: detect.StoreValue, Value: u.storeVal, PC: u.pc, Thread: u.thread}
}

// triggerReplay starts a predecessor replay: every instruction in the
// delay buffer plus the triggering instruction re-executes through the
// back-end (Section 3.3). Triggers raised while a replay is in flight
// are ignored.
func (c *Core) triggerReplay(trigger *uop) {
	if c.replayPending > 0 {
		return
	}
	c.schedTouch() // replayed uops return to dispatched
	marked := append(append(c.replayScratch[:0], c.delayBuf.s...), trigger)
	c.replayScratch = marked
	c.delayBuf.reset()
	started := 0
	for _, m := range marked {
		if m.state != stCompleted || !m.inIQ || m.inst.IsAtomic() {
			m.inDelayBuf = false
			continue
		}
		m.inDelayBuf = false
		m.state = stDispatched
		c.iqDisp |= 1 << uint(m.iqSlot)
		m.replaying = true
		if m.dst != physNone {
			c.rf.ready[m.dst] = false
		}
		c.replayPending++
		started++
	}
	if started == 0 {
		return
	}
	// Replay flipped completed destinations back to not-ready — the
	// one ready->false transition under already-registered slots —
	// so re-derive the wakeup state wholesale.
	c.rebuildSched()
	c.stats.ReplayTriggers++
	c.detSetLearnOnly(true)
}

package pipeline

import (
	"faulthound/internal/detect"
	"faulthound/internal/isa"
)

// shadowBacklogCap is the SRT-iso backpressure bound: when this many
// redundant copies are waiting for issue slots, commit stalls (the
// trailing threads cannot fall arbitrarily far behind the leading
// threads).
const shadowBacklogCap = 64

// commit retires up to CommitWidth completed instructions in program
// order per thread, round-robin across threads. Loads and stores are
// re-checked against the filters here (the LSQ coverage of Section
// 3.5); a trigger re-executes the single instruction from register-file
// state and compares, declaring a fault on mismatch.
func (c *Core) commit() {
	if c.commitStall > 0 {
		c.commitStall--
		return
	}
	if c.shadowPending >= shadowBacklogCap {
		return // SRT-iso backpressure
	}
	budget := c.cfg.CommitWidth
	n := len(c.threads)
	for off := 0; off < n && budget > 0; off++ {
		t := c.threads[(int(c.cycle)+off)%n]
		for budget > 0 && len(t.rob.s) > 0 {
			if !c.commitOne(t) {
				break
			}
			budget--
			if c.commitStall > 0 {
				return // singleton re-execute suspends commit
			}
		}
	}
}

// commitOne retires the oldest instruction of t if it is complete; it
// reports whether an instruction was retired.
func (c *Core) commitOne(t *threadState) bool {
	u := t.rob.s[0]
	if u.state != stCompleted {
		return false
	}
	// Atomics retire immediately (their memory effect is already
	// applied); everything else waits out the retirement latency.
	if !u.inst.IsAtomic() && c.cycle < u.completeAt+uint64(c.cfg.CommitDelay) {
		return false
	}
	c.schedTouch() // retiring frees registers and can expose an atomic at the ROB head

	if u.excepted {
		// Precise exception at commit: the paper's "noisy" outcome.
		c.trace(TraceException, u, u.exceptMsg)
		t.excepted = true
		t.exceptMsg = u.exceptMsg
		c.stats.Exceptions++
		c.squashThread(t)
		return false
	}

	if u.halt {
		t.halted = true
		c.stats.Halts++
		c.retire(t, u)
		c.squashThread(t) // nothing younger can commit
		return true
	}

	if u.isMem() {
		if act := c.checkCommit(u); act == detect.Singleton {
			c.singletonReexec(u)
		}

		if u.isStore() {
			if err := c.memory.Write(u.effAddr, u.storeVal); err != nil {
				t.excepted = true
				t.exceptMsg = "store translation exception at commit"
				c.stats.Exceptions++
				c.squashThread(t)
				return false
			}
			c.hier.AccessD(u.effAddr, true)
		}
	}

	c.retire(t, u)
	return true
}

// retire applies u's architectural effects and releases its resources.
func (c *Core) retire(t *threadState, u *uop) {
	if u.dst != physNone {
		// Free the previous mapping of the architectural destination.
		// With a rename fault, oldDst read from the corrupted RAT frees
		// the wrong physical register — the post-commit corruption the
		// paper notes is unrecoverable (Section 5.5).
		c.rf.free(u.oldDst)
		c.schedWake(u.oldDst)
		t.aRAT[u.inst.Rd] = u.dst
		t.writtenRegs |= 1 << u.inst.Rd
	}
	if u.taken {
		t.aPC = u.target
	} else {
		t.aPC = u.pc + 1
	}
	if u.inst.IsCondBranch() {
		if u.taken {
			t.archHistory = t.archHistory<<1 | 1
		} else {
			t.archHistory = t.archHistory << 1
		}
	}

	t.rob.pop()
	if u.isMem() && len(t.lsq.s) > 0 && t.lsq.s[0] == u {
		t.lsq.pop()
	}
	if u.inDelayBuf {
		c.dropFromDelayBuf(u)
	}
	c.iqRemove(u)
	u.state = stCommitted

	t.committed++
	c.stats.Committed++
	c.trace(TraceCommit, u, "")
	if c.commitHook != nil {
		c.commitHook(t.id, t.committed)
	}
	switch {
	case u.isLoad():
		c.stats.Loads++
		if c.memHook != nil {
			c.memHook(t.id, false, u.effAddr, u.result)
		}
	case u.isStore():
		c.stats.Stores++
		if c.memHook != nil {
			c.memHook(t.id, true, u.effAddr, u.storeVal)
		}
	case u.inst.IsBranch():
		c.stats.Branches++
	}

	// SRT-iso: spawn an idealized redundant copy for a ShadowRedundancy
	// fraction of committed instructions (deterministic accumulator).
	if c.cfg.ShadowRedundancy > 0 {
		c.shadowAcc += c.cfg.ShadowRedundancy
		if c.shadowAcc >= 1 {
			c.shadowAcc--
			c.shadowPending++
		}
	}
}

// checkCommit runs the detector's commit-time (LSQ) checks. Atomics
// are exempt: their effect is applied at execute and a singleton
// re-execution would double-apply it.
func (c *Core) checkCommit(u *uop) detect.Action {
	if c.detector == nil || u.inst.IsAtomic() {
		return detect.None
	}
	if t := c.threads[u.thread]; t.committed+1 <= t.exemptUntil {
		return detect.None // deemed final (rollback re-execution)
	}
	act := c.detOnCommit(loadOrStoreAddrEvent(u))
	if u.isStore() {
		if a := c.detOnCommit(storeValueEvent(u)); a > act {
			act = a
		}
	}
	return act
}

// singletonReexec re-executes a single load or store from register-file
// state (all older instructions have committed, so source values are
// architectural), compares against the LSQ copy, corrects it, and
// declares a fault on mismatch (Section 3.5). It suspends normal
// commit/issue briefly.
func (c *Core) singletonReexec(u *uop) {
	c.trace(TraceSingleton, u, "LSQ commit check")
	c.stats.Singletons++
	c.commitStall += c.cfg.SingletonStall

	var s1, s2 uint64
	if u.nsrc > 0 {
		s1 = c.rf.read(u.src[0])
	}
	if u.nsrc > 1 {
		s2 = c.rf.read(u.src[1])
	}
	out := isa.Exec(u.inst, u.pc, s1, s2)

	if u.isStore() {
		if out.EffAddr != u.effAddr || out.Value != u.storeVal {
			// A fault sits in the LSQ copy or the register file; the
			// comparison detects it either way, and the recomputed
			// values correct an LSQ fault before the memory write.
			c.stats.FaultsDeclared++
			c.stats.SingletonCorrected++
			u.effAddr = out.EffAddr
			u.storeVal = out.Value
		}
		return
	}
	// Load: the loaded value has long been consumed, so the singleton
	// only detects (no correction of consumers is possible).
	if out.EffAddr != u.effAddr {
		c.stats.FaultsDeclared++
		return
	}
	if c.memory.Mapped(out.EffAddr) {
		if v, _ := c.memory.Read(out.EffAddr); v != u.result {
			c.stats.FaultsDeclared++
		}
	}
}

// dropFromDelayBuf removes u from the delay buffer.
func (c *Core) dropFromDelayBuf(u *uop) {
	for i, e := range c.delayBuf.s {
		if e == u {
			c.delayBuf.s = append(c.delayBuf.s[:i], c.delayBuf.s[i+1:]...)
			break
		}
	}
	u.inDelayBuf = false
}

package pipeline

// squashUop marks u dead and releases its physical destination and
// queue slots. The caller repairs the RAT and the containing queues.
func (c *Core) squashUop(u *uop) {
	if u.state == stSquashed || u.state == stCommitted {
		return
	}
	c.trace(TraceSquash, u, "")
	if u.replaying {
		u.replaying = false
		c.replayPending--
	}
	u.state = stSquashed
	u.inDelayBuf = false
	c.iqRemove(u)
	c.rf.free(u.dst)
	c.schedWake(u.dst)
	u.dst = physNone
}

// fullSquash rolls the trigger's thread back to its architectural
// state: every uncommitted instruction is squashed, the RAT is restored
// from the architectural RAT, and fetch restarts at the next-to-commit
// PC. This is the recovery PBFS uses for every trigger and FaultHound
// reserves for likely rename faults (Section 3.4). The re-executions up
// to and including the trigger are deemed final (checked learn-only),
// which guarantees forward progress.
func (c *Core) fullSquash(trigger *uop) {
	c.schedTouch()
	t := c.threads[trigger.thread]
	// An executed atomic's read-modify-write cannot be undone: stop the
	// rollback just after the youngest such atomic (it stays and
	// commits; its RAT checkpoint restores the map).
	for i := len(t.rob.s) - 1; i >= 0; i-- {
		if u := t.rob.s[i]; u.rmwDone && u.state != stCommitted {
			c.stats.Rollbacks++
			c.squashAfter(u)
			t.pc = u.pc + 1
			return
		}
	}
	c.stats.Rollbacks++
	squashed := 0
	position := uint64(0)
	for _, u := range t.rob.s {
		if u.state != stCommitted {
			squashed++
			if u == trigger {
				position = t.committed + uint64(squashed)
			}
			c.squashUop(u)
		}
	}
	c.stats.RollbackSquashedUops += uint64(squashed + len(t.fetchQ.s))
	if c.cfg.RollbackDeemedFinal && position > t.exemptUntil {
		t.exemptUntil = position
	}
	t.fetchBlockedUntil = c.cycle + uint64(c.cfg.RollbackPenalty)
	c.finishThreadSquash(t)
	if c.replayPending == 0 {
		c.detSetLearnOnly(false)
	}
}

// squashThread clears a thread's in-flight state without counting it as
// a detector rollback (used at HALT and exception commit).
func (c *Core) squashThread(t *threadState) {
	c.schedTouch()
	for _, u := range t.rob.s {
		c.squashUop(u)
	}
	c.finishThreadSquash(t)
	if c.replayPending == 0 {
		c.detSetLearnOnly(false)
	}
}

// finishThreadSquash resets the thread's queues and speculative state.
func (c *Core) finishThreadSquash(t *threadState) {
	t.rob.reset()
	t.lsq.reset()
	t.fetchQ.reset()
	copy(t.rat, t.aRAT)
	t.pc = t.aPC
	t.pred.SetHistory(t.archHistory)
	t.fetchStopped = false
	c.filterDelayBuf()
	c.filterInFlight()
}

// squashAfter squashes every same-thread instruction younger than b
// (branch misprediction recovery): the RAT is restored from b's
// checkpoint and fetch resumes at the resolved target (set by caller).
func (c *Core) squashAfter(b *uop) {
	c.schedTouch()
	t := c.threads[b.thread]
	keep := t.rob.s[:0]
	for _, u := range t.rob.s {
		if u.seq > b.seq {
			c.stats.BranchSquashedUops++
			c.squashUop(u)
		} else {
			keep = append(keep, u)
		}
	}
	t.rob.s = keep

	keepLSQ := t.lsq.s[:0]
	for _, u := range t.lsq.s {
		if u.seq <= b.seq {
			keepLSQ = append(keepLSQ, u)
		}
	}
	t.lsq.s = keepLSQ

	c.stats.BranchSquashedUops += uint64(len(t.fetchQ.s))
	t.fetchQ.reset()
	if b.ratCkpt != nil {
		copy(t.rat, b.ratCkpt)
	} else {
		copy(t.rat, t.aRAT)
	}
	t.fetchStopped = false
	c.filterDelayBuf()
	c.filterInFlight()
	if c.replayPending == 0 {
		c.detSetLearnOnly(false)
	}
}

// filterDelayBuf drops squashed entries from the delay buffer.
func (c *Core) filterDelayBuf() {
	keep := c.delayBuf.s[:0]
	for _, u := range c.delayBuf.s {
		if u.state == stCompleted && u.inDelayBuf {
			keep = append(keep, u)
		}
	}
	c.delayBuf.s = keep
}

// filterInFlight drops squashed entries from the executing set.
func (c *Core) filterInFlight() {
	keep := c.inFlight[:0]
	for _, u := range c.inFlight {
		if u.state != stSquashed {
			keep = append(keep, u)
		}
	}
	c.inFlight = keep
}

package pipeline

import (
	"sort"

	"faulthound/internal/mem"
)

// Clone returns an independent deep copy of the core, preserving uop
// identity across all internal queues. A core whose data memory is a
// copy-on-write overlay (a Snapshot) copies only the overlay's dirty
// words and shares its frozen parent image (mem.Memory.CloneLayer).
// system.System.Clone copies a machine's cores the same way over one
// copy of their shared memory: the fault runner's golden checkpoints
// are such copies of a trace that runs on a snapshot of the golden
// machine.
func (c *Core) Clone() *Core {
	return c.CloneWith(c.memory.CloneLayer(), nil)
}

// SnapshotArena owns the reusable storage for repeated snapshots of one
// golden core: the destination core itself, a flat uop slab, a RAT
// checkpoint slab, and the per-thread segment table. The queue pointer
// slices live on the destination core's own fields, so capacity the
// previous run grew into (a deep delay buffer, a long LSQ) carries over
// to the next snapshot. A campaign worker keeps one arena and calls
// Snapshot once per injection; everything a snapshot needs after the
// first is already allocated, so a snapshot degenerates to bulk copies.
// Each Snapshot invalidates the previous one (they share storage), and
// an arena must not be shared across goroutines.
type SnapshotArena struct {
	dst  *Core
	slab []uop
	ckpt []physID
	segs []cloneSeg
}

// NewSnapshotArena returns an empty arena; storage is grown on first
// use and reused afterwards.
func NewSnapshotArena() *SnapshotArena { return &SnapshotArena{} }

// SetCloneBaseline registers base's memory hierarchy as the frozen
// delta-clone anchor for c's (mem.Hierarchy.SetBaseline): an arena
// snapshot restored from c then rewrites only the L2 lines touched
// since the destination's last restore instead of the full tag store.
// With c != base, c's L2 also drops what it shares with base and keeps
// only the lines that differ (mem.Cache.SetBaseline). Both cores must
// be frozen fork origins that are never stepped again.
func (c *Core) SetCloneBaseline(base *Core) { c.hier.SetBaseline(base.hier) }

// cloneSeg records where one thread's ROB and fetch queue landed in the
// slab, for remapping the queues that alias into them.
type cloneSeg struct {
	robSrc, fqSrc []*uop
	robDst, fqDst []uop
}

// Snapshot returns a copy of c built inside the arena. The copy's data
// memory is a copy-on-write overlay over c's memory (the arena's
// previous overlay, emptied and re-pointed at c's memory, so
// checkpoint-forked snapshots stay allocation-free too), so c must stay
// immutable while the snapshot is in use — the fault runner's Prepared
// contract. The returned core is valid until the next Snapshot on the
// same arena.
func (c *Core) Snapshot(a *SnapshotArena) *Core {
	var prev *mem.Memory
	if a.dst != nil {
		prev = a.dst.memory
	}
	return c.CloneWith(c.memory.OverlayInto(prev), a)
}

// ensureLen returns buf resized to n, reallocating only when the
// capacity is insufficient.
func ensureLen[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// CloneWith is the core's one deep copy, over the data memory m the
// caller supplies: Clone passes the core's own CloneLayer and no
// arena, Snapshot the core's own overlay and an arena, and a multicore
// system the one copy of its shared memory that all its cores' copies
// reference. Every structure is copied with its CloneInto into the
// destination's previous one, so the arena's destination core and all
// its storage are reused; with a nil arena the destination is a new
// core, every CloneInto gets nil, and every piece is freshly allocated.
//
// The copy leans on two container invariants of the pipeline:
//
//   - Every live uop is reachable from its thread's ROB or fetch queue
//     (dispatchOne moves uops from the fetch queue into the ROB and is
//     the only path into the IQ/LSQ; the delay buffer and executing set
//     hold only dispatched uops). So one slab sized by ROB+fetchQ
//     occupancy holds every uop, with no discovery pass.
//   - ROB and fetch queue are strictly ascending in the globally-unique
//     seq tag, so the aliasing queues (IQ, LSQ, delay buffer, executing
//     set) are remapped by binary search on seq instead of a map.
func (c *Core) CloneWith(m *mem.Memory, a *SnapshotArena) *Core {
	nUops, nCkpt := 0, 0
	for _, t := range c.threads {
		nUops += len(t.rob.s) + len(t.fetchQ.s)
		for _, u := range t.rob.s {
			nCkpt += len(u.ratCkpt)
		}
		for _, u := range t.fetchQ.s {
			nCkpt += len(u.ratCkpt)
		}
	}

	var (
		d    *Core
		slab []uop
		ckpt []physID
		segs []cloneSeg
	)
	if a != nil {
		if a.dst == nil {
			a.dst = &Core{}
		}
		d = a.dst
		slab = ensureLen(&a.slab, nUops)
		ckpt = ensureLen(&a.ckpt, nCkpt)
		segs = ensureLen(&a.segs, len(c.threads))
		// The previous run's chunks are all free: nothing references
		// them once the queues are rebuilt from the slab below.
		d.uops.release()
		d.ckpts.release()
	} else {
		// A fresh copy starts with no chunks.
		d = &Core{}
		slab = make([]uop, nUops)
		ckpt = make([]physID, nCkpt)
		segs = make([]cloneSeg, len(c.threads))
	}

	// Pass 1: bulk-copy every thread's ROB and fetch queue into the slab
	// (all uops), carving RAT checkpoints out of the checkpoint slab.
	slabOff, ckptOff := 0, 0
	cloneRun := func(src []*uop) []uop {
		dst := slab[slabOff : slabOff+len(src)]
		slabOff += len(src)
		for i, u := range src {
			dst[i] = *u
			if u.ratCkpt != nil {
				ck := ckpt[ckptOff : ckptOff+len(u.ratCkpt)]
				ckptOff += len(u.ratCkpt)
				copy(ck, u.ratCkpt)
				dst[i].ratCkpt = ck
			}
		}
		return dst
	}
	for i, t := range c.threads {
		segs[i] = cloneSeg{
			robSrc: t.rob.s, robDst: cloneRun(t.rob.s),
			fqSrc: t.fetchQ.s, fqDst: cloneRun(t.fetchQ.s),
		}
	}

	// Pass 2: remap the aliasing queues onto the slab copies.
	remap := func(u *uop) *uop {
		if u == nil {
			return nil
		}
		s := &segs[u.thread]
		if i := searchSeq(s.robSrc, u.seq); i >= 0 && s.robSrc[i] == u {
			return &s.robDst[i]
		}
		if i := searchSeq(s.fqSrc, u.seq); i >= 0 && s.fqSrc[i] == u {
			return &s.fqDst[i]
		}
		// Unreachable under the container invariant; copy defensively so
		// a future aliasing change degrades to a slower clone, not a
		// shared-mutable-uop bug.
		e := new(uop)
		*e = *u
		if u.ratCkpt != nil {
			e.ratCkpt = append([]physID(nil), u.ratCkpt...)
		}
		return e
	}
	// The pointer-slice rebuilders append into the destination's old
	// slice or queue: the capacity the previous run grew into (a deep
	// delay buffer, a full ROB) is reused, so steady-state snapshots
	// and runs stop allocating queue storage. Appending into dst is
	// safe — its old contents point at dead slab state.
	remapInto := func(dst, src []*uop) []*uop {
		if src == nil {
			return nil
		}
		dst = dst[:0]
		for _, u := range src {
			dst = append(dst, remap(u))
		}
		return dst
	}
	remapQueue := func(q fifo, src []*uop) fifo {
		q.reset()
		for _, u := range src {
			q.push(remap(u))
		}
		return q
	}
	ptrsQueue := func(q fifo, seg []uop) fifo {
		q.reset()
		for i := range seg {
			q.push(&seg[i])
		}
		return q
	}

	d.cfg = c.cfg
	d.cycle = c.cycle
	d.seq = c.seq
	d.rf = c.rf.cloneInto(d.rf)
	d.iq = remapInto(d.iq, c.iq)
	d.iqUsed = c.iqUsed
	d.iqMask = c.iqMask
	d.iqDisp = c.iqDisp
	d.iqSched = c.iqSched
	d.iqReady = c.iqReady
	d.iqPend = c.iqPend
	d.rfWait = append(d.rfWait[:0], c.rfWait...)
	d.rfRef = append(d.rfRef[:0], c.rfRef...)
	d.inFlight = remapInto(d.inFlight, c.inFlight)
	d.delayBuf = remapQueue(d.delayBuf, c.delayBuf.s)
	if c.mshrFree == nil {
		d.mshrFree = nil
	} else {
		d.mshrFree = append(d.mshrFree[:0], c.mshrFree...)
	}
	d.memory = m
	d.hier = c.hier.CloneInto(d.hier)
	if c.detector == nil {
		d.detector = nil
	} else {
		d.detector = c.detector.CloneInto(d.detector)
	}
	d.detStream = c.detStream
	// Observation hooks never carry over: the fault runner installs its
	// own per-run hooks on the copy.
	d.probe = nil
	d.tracer = nil
	d.commitHook = nil
	d.memHook = nil
	d.replayPending = c.replayPending
	d.commitStall = c.commitStall
	d.shadowAcc = c.shadowAcc
	d.shadowPending = c.shadowPending
	d.stats = c.stats
	d.issueScratch = d.issueScratch[:0]
	d.doneScratch = d.doneScratch[:0]
	d.replayScratch = d.replayScratch[:0]
	// Conservative: the copy has no gather memo to inherit.
	d.schedClean = false

	if cap(d.threads) < len(c.threads) {
		d.threads = make([]*threadState, 0, len(c.threads))
	}
	reuse := d.threads
	d.threads = d.threads[:0]
	for i, t := range c.threads {
		var dt *threadState
		if i < len(reuse) && reuse[i] != nil {
			dt = reuse[i]
		} else {
			dt = &threadState{}
		}
		rat := append(dt.rat[:0], t.rat...)
		aRAT := append(dt.aRAT[:0], t.aRAT...)
		pred := t.pred.CloneInto(dt.pred)
		*dt = threadState{
			id:                t.id,
			prog:              t.prog, // immutable after build
			pc:                t.pc,
			rat:               rat,
			aRAT:              aRAT,
			aPC:               t.aPC,
			pred:              pred,
			halted:            t.halted,
			fetchStopped:      t.fetchStopped,
			excepted:          t.excepted,
			exceptMsg:         t.exceptMsg,
			fetchQ:            ptrsQueue(dt.fetchQ, segs[i].fqDst),
			rob:               ptrsQueue(dt.rob, segs[i].robDst),
			lsq:               remapQueue(dt.lsq, t.lsq.s),
			committed:         t.committed,
			named:             t.named,
			writtenRegs:       t.writtenRegs,
			archHistory:       t.archHistory,
			exemptUntil:       t.exemptUntil,
			fetchBlockedUntil: t.fetchBlockedUntil,
		}
		d.threads = append(d.threads, dt)
	}
	return d
}

// searchSeq finds the index of seq in a seq-ascending uop slice, or -1.
func searchSeq(us []*uop, seq uint64) int {
	i := sort.Search(len(us), func(i int) bool { return us[i].seq >= seq })
	if i < len(us) && us[i].seq == seq {
		return i
	}
	return -1
}

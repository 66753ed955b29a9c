package pipeline

import (
	"fmt"
	"math/bits"

	"faulthound/internal/branch"
	"faulthound/internal/detect"
	"faulthound/internal/isa"
	"faulthound/internal/mem"
	"faulthound/internal/prog"
)

// threadState is the per-SMT-context front-end and in-order state.
type threadState struct {
	id   int
	prog *prog.Program

	pc     uint64 // speculative fetch PC
	rat    []physID
	aRAT   []physID // architectural RAT, updated at commit
	aPC    uint64   // PC of the next instruction to commit
	pred   *branch.Predictor
	halted bool
	// fetchStopped pauses fetch past a HALT or the end of the code;
	// squash-and-redirect clears it.
	fetchStopped bool
	// excepted latches a committed translation exception (the paper's
	// "noisy" fault outcome); the thread stops making progress.
	excepted  bool
	exceptMsg string

	fetchQ fifo // fetched, waiting for dispatch
	rob    fifo // in-flight in program order (oldest first)
	lsq    fifo // loads/stores in program order (oldest first)

	committed uint64
	// named is a bitmask of the architectural registers the thread's
	// program names anywhere in its code, as a destination or a source
	// (namedRegs). Set at build, copied on clone, never written after:
	// no instruction can read or redefine an unnamed register, so the
	// reconvergence digest treats its rename entries as dead state.
	named uint64
	// writtenRegs is a bitmask of architectural registers the program
	// has committed a write to; ArchHash covers only these (a flip in a
	// never-written register is dead state, not program state).
	writtenRegs uint64
	// archHistory is the committed branch-history register; a full
	// rollback restores the predictor's speculative history from it.
	archHistory uint64
	// fetchBlockedUntil implements the rollback redirect penalty.
	fetchBlockedUntil uint64
	// schedMinStore is per-gather scratch (see issue): the seq of the
	// thread's oldest incomplete store/atomic, recomputed before every
	// IQ scan and read by olderStoresDone. Never cloned or folded.
	schedMinStore uint64
	// exemptUntil is an absolute committed-instruction position: the
	// re-executions of instructions that will commit at or before it
	// are deemed final (Section 2.1: "values re-computed by rollbacks
	// are deemed final") — checked learn-only, never triggering.
	// Covering the prefix up to the rollback's triggering instruction
	// guarantees forward progress: the filters keep evolving, so
	// without it, re-executed instructions re-trigger against drifted
	// filter state and the same rollback repeats forever.
	exemptUntil uint64
}

// Core is one simulated out-of-order SMT core.
type Core struct {
	cfg Config

	cycle uint64
	seq   uint64

	threads []*threadState
	rf      *regFile
	iq      []*uop // nil entries are free
	iqUsed  int
	// iqMask/iqDisp mirror iq as occupancy bitmasks (IQSize <= 64,
	// enforced by Config.validate): iqMask has a bit per occupied slot,
	// iqDisp the subset whose uop is in stDispatched. Insert/remove
	// become O(1) and the issue gather walks set bits instead of
	// scanning every slot for state.
	iqMask uint64
	iqDisp uint64
	// iqSched[i] caches the scheduler-relevant fields of iq[i] — all
	// immutable for the uop's IQ residency — in one compact record, so
	// the per-cycle gather reads 16 hot bytes per waiting entry instead
	// of chasing the 200+-byte uop. Written by iqInsert, copied
	// wholesale on clone, never folded into digests (derivable from
	// iq).
	iqSched [64]iqSchedEnt
	// Event-driven wakeup state: the gather no longer polls ready
	// bits for every waiting entry every cycle. iqReady holds the
	// slots whose renamed sources are all ready, maintained at the
	// points where readiness changes (schedRegister/schedWake/
	// schedAllocated/rebuildSched); iqPend counts each slot's
	// outstanding distinct sources; rfWait maps a physical register
	// to the slots waiting on it; rfRef counts source references from
	// live IQ slots so a register allocation can detect the
	// corrupted-RAT hazard in O(1). All of it is derivable from
	// (iqMask, iqSched, rf.ready) — copied on clone, never folded
	// into digests.
	iqReady uint64
	iqPend  [64]uint8
	rfWait  []uint64
	rfRef   []uint8

	inFlight []*uop // issued, waiting for completeAt
	delayBuf fifo   // completed instructions eligible for replay

	// mshrFree holds the cycle each miss-status register frees up.
	mshrFree []uint64

	memory *mem.Memory
	hier   *mem.Hierarchy

	detector detect.Detector
	// detStream folds every detector interaction (completion/commit
	// checks with their full events, learn-only transitions) into a
	// running stream tag: two cores that started from the same snapshot
	// and carry equal tags have driven their detectors identically, so
	// the detectors hold equal internal state. The reconvergence digest
	// compares this one word instead of the detector's filter tables.
	// Stays zero for a detector-less baseline.
	detStream uint64
	probe     func(detect.Event)
	tracer    Tracer
	// commitHook is called after every retirement with the thread id
	// and its new committed count (fault-injection state comparison).
	commitHook func(tid int, count uint64)
	// memHook is called at every load/store retirement with the
	// committed memory operation (stream recording, internal/wgen).
	memHook func(tid int, store bool, addr, val uint64)

	replayPending int
	commitStall   int

	// SRT-iso shadow model.
	shadowAcc     float64
	shadowPending int

	// Per-cycle scratch buffers, reused so the issue/complete/replay
	// loops allocate nothing in steady state. Never cloned: each core
	// owns its own, and their contents are dead between cycles.
	issueScratch  []*uop
	doneScratch   []*uop
	replayScratch []*uop

	// schedClean memoizes an empty issue gather: it is true only when
	// the previous gather found no issuable candidate AND no event
	// since could have created one (IQ membership change, a uop
	// returning to dispatched, a ready-bit or store-completion change,
	// a commit unblocking an atomic, or a fault flip). Pure
	// memoization: it skips rescanning a provably-unchanged issue
	// queue in stalled cycles and never alters which uops issue, so it
	// is scratch state — never cloned, never folded into digests.
	schedClean bool

	// Chunked allocators for fetch-time uops and dispatch-time RAT
	// checkpoints: carving from a chunk replaces one heap allocation per
	// uop with one per chunk, and a chunk is recycled once every uop
	// that carved from it has died (chunkPool). Each core owns its
	// chunks: CloneWith never reads the source's, and hands an arena
	// destination's to their free lists.
	uops  chunkPool[uop]
	ckpts chunkPool[physID]

	stats Stats
}

// uopChunkSize is how many uops one allocator chunk holds, and
// ckptChunkCarves how many RAT checkpoints.
const (
	uopChunkSize    = 256
	ckptChunkCarves = 64
)

// newUop returns a zeroed uop from the chunk allocator, tagged with the
// next seq.
func (c *Core) newUop() *uop {
	seq := c.nextSeq()
	u := &c.uops.carve(c, 1, uopChunkSize, seq)[0]
	u.seq = seq
	return u
}

// newCkpt returns a fresh n-word RAT-checkpoint slice for the uop with
// sequence number seq from the chunk allocator, capped so it can never
// alias a later carve.
func (c *Core) newCkpt(n int, seq uint64) []physID {
	return c.ckpts.carve(c, n, n*ckptChunkCarves, seq)
}

// chunkPool is a core's chunk allocator for one kind of per-uop
// storage. It carves slices from fixed-size chunks and recycles a chunk
// by age: once the largest seq that carved from it is below the seq of
// every live uop, nothing references the chunk any more. That rests on
// the container invariant CloneWith relies on — every live uop is in
// its thread's ROB or fetch queue, each ascending in seq — and on
// commit and squash taking a uop out of the IQ, LSQ, delay buffer and
// executing set (retire, squashUop, filterDelayBuf, filterInFlight).
// The per-cycle scratch lists are dead between cycles, and carving
// happens in dispatch (checkpoints) and fetch (uops), after every stage
// that reads them, so none still holds a recycled uop; the tracer
// copies fields, not pointers.
type chunkPool[T any] struct {
	live []poolChunk[T] // handed out, oldest first; the last is being carved
	free [][]T
	rest []T // the uncarved tail of the last live chunk
}

type poolChunk[T any] struct {
	buf []T
	// maxSeq is the largest seq that carved from buf: SMT threads
	// dispatch interleaved, so checkpoint carves do not ascend.
	maxSeq uint64
}

// carve returns n zeroed elements for the uop with sequence number
// seq, capped so they can never alias a later carve. A new chunk holds
// size elements.
func (p *chunkPool[T]) carve(c *Core, n, size int, seq uint64) []T {
	if len(p.rest) < n {
		p.refill(c, size)
	}
	s := p.rest[:n:n]
	p.rest = p.rest[n:]
	if last := &p.live[len(p.live)-1]; seq > last.maxSeq {
		last.maxSeq = seq
	}
	return s
}

// refill starts carving a zeroed chunk: a free one, else the oldest
// live one once every uop that carved from it has died, else a new one.
func (p *chunkPool[T]) refill(c *Core, size int) {
	var buf []T
	switch {
	case len(p.free) > 0:
		buf = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		clear(buf)
	case len(p.live) > 0 && p.live[0].maxSeq < c.oldestLiveSeq():
		buf = p.live[0].buf
		p.live = append(p.live[:0], p.live[1:]...)
		clear(buf)
	default:
		buf = make([]T, size)
	}
	p.live = append(p.live, poolChunk[T]{buf: buf})
	p.rest = buf
}

// release moves every chunk to the free list. The caller guarantees
// that no uop carved from them is referenced any more.
func (p *chunkPool[T]) release() {
	for _, ch := range p.live {
		p.free = append(p.free, ch.buf)
	}
	p.live = p.live[:0]
	p.rest = nil
}

// oldestLiveSeq returns the smallest seq of any live uop, the head of
// some thread's ROB or fetch queue, or the next seq to be handed out
// when no uop is live.
func (c *Core) oldestLiveSeq() uint64 {
	oldest := c.seq + 1
	for _, t := range c.threads {
		if len(t.rob.s) > 0 {
			oldest = min(oldest, t.rob.s[0].seq)
		}
		if len(t.fetchQ.s) > 0 {
			oldest = min(oldest, t.fetchQ.s[0].seq)
		}
	}
	return oldest
}

// New builds a core running the given programs, one per SMT context
// (the paper runs two copies of the same program per core, each in its
// own address space — pass per-thread programs with disjoint data
// segments). The shared data memory spans the union of the programs'
// segments. detector may be nil for the fault-intolerant baseline.
func New(cfg Config, programs []*prog.Program, detector detect.Detector) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(programs) != cfg.Threads {
		return nil, fmt.Errorf("pipeline: %d programs for %d threads", len(programs), cfg.Threads)
	}
	// NewMemory copies the image, so one program's Data is passed as is
	// and only several programs' are merged first.
	base, end := programs[0].DataBase, programs[0].DataBase+programs[0].DataSize
	image := programs[0].Data
	if len(programs) > 1 {
		image = make(map[uint64]uint64)
		for _, p := range programs {
			if p.DataBase < base {
				base = p.DataBase
			}
			if e := p.DataBase + p.DataSize; e > end {
				end = e
			}
			for a, v := range p.Data {
				image[a] = v
			}
		}
	}
	return NewShared(cfg, programs, detector, mem.NewMemory(base, end-base, image))
}

// NewShared builds a core whose data memory is supplied by the caller —
// the multicore construction, where several cores share one memory
// image (package system). The programs' segments must lie inside the
// shared memory. Caches remain private and timing-only, so no
// coherence protocol is needed for correctness; cross-core sharing
// costs only what the shared memory latency model charges.
func NewShared(cfg Config, programs []*prog.Program, detector detect.Detector, shared *mem.Memory) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(programs) != cfg.Threads {
		return nil, fmt.Errorf("pipeline: %d programs for %d threads", len(programs), cfg.Threads)
	}
	c := &Core{
		cfg:      cfg,
		rf:       newRegFile(cfg.IntPhysRegs, cfg.FPPhysRegs),
		iq:       make([]*uop, cfg.IQSize),
		rfWait:   make([]uint64, cfg.IntPhysRegs+cfg.FPPhysRegs),
		rfRef:    make([]uint8, cfg.IntPhysRegs+cfg.FPPhysRegs),
		memory:   shared,
		hier:     mem.NewHierarchy(cfg.Hierarchy),
		detector: detector,
	}

	// Assign initial architectural mappings: physical register 0 is the
	// shared zero register; each thread gets 31 integer and 16 FP
	// physical registers for its initial state.
	nextInt := physID(1)
	nextFP := physID(cfg.IntPhysRegs)
	for tid := 0; tid < cfg.Threads; tid++ {
		t := &threadState{
			id:    tid,
			prog:  programs[tid],
			pc:    programs[tid].Entry,
			aPC:   programs[tid].Entry,
			rat:   make([]physID, isa.NumArchRegs),
			aRAT:  make([]physID, isa.NumArchRegs),
			pred:  branch.New(cfg.Branch),
			named: namedRegs(programs[tid]),
		}
		t.rat[isa.RZero] = 0
		for r := isa.Reg(1); r < isa.NumIntRegs; r++ {
			t.rat[r] = nextInt
			nextInt++
		}
		for r := isa.F0; r < isa.NumArchRegs; r++ {
			t.rat[r] = nextFP
			nextFP++
		}
		copy(t.aRAT, t.rat)
		c.threads = append(c.threads, t)
	}
	// Remaining registers go to the free lists.
	for p := nextInt; p < physID(cfg.IntPhysRegs); p++ {
		c.rf.freeInt = append(c.rf.freeInt, p)
	}
	for p := nextFP; p < physID(cfg.IntPhysRegs+cfg.FPPhysRegs); p++ {
		c.rf.freeFP = append(c.rf.freeFP, p)
	}
	return c, nil
}

// namedRegs returns the bitmask of architectural registers p's code
// names: the destination of every instruction that has one, and every
// source operand. Fetch reads only p.Code, so no instruction any run
// of the core executes, on the right path or the wrong one, names a
// register outside the mask.
func namedRegs(p *prog.Program) uint64 {
	var m uint64
	for _, in := range p.Code {
		if in.HasDest() {
			m |= 1 << in.Rd
		}
		for _, r := range in.SrcRegs() {
			m |= 1 << r
		}
	}
	return m
}

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// Stats returns a snapshot of the pipeline counters.
func (c *Core) Stats() Stats { return c.stats }

// Memory returns the core's architectural data memory.
func (c *Core) Memory() *mem.Memory { return c.memory }

// MemStats returns the cache/TLB counters.
func (c *Core) MemStats() mem.HierarchyStats { return c.hier.Stats() }

// Detector returns the attached detector (nil for the baseline).
func (c *Core) Detector() detect.Detector { return c.detector }

// DetectorStats returns the detector counters, or the zero value for a
// detector-less baseline.
func (c *Core) DetectorStats() detect.Stats {
	if c.detector == nil {
		return detect.Stats{}
	}
	return c.detector.Stats()
}

// mixDet finalizes one word of the detector stream tag.
func mixDet(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return x
}

// foldDet mixes one word into the detector-interaction stream tag.
func (c *Core) foldDet(x uint64) { c.detStream = mixDet(x ^ c.detStream) }

// detOnComplete routes a completion-check event to the detector,
// folding the full event into the stream tag. Caller guarantees
// c.detector != nil.
func (c *Core) detOnComplete(ev detect.Event) detect.Action {
	c.foldDet(ev.PC<<8 | uint64(ev.Kind)<<5 | uint64(ev.Thread)<<1 | 1)
	c.foldDet(ev.Value)
	return c.detector.OnComplete(ev)
}

// detOnCommit routes a commit-check event to the detector, folding the
// full event into the stream tag. Caller guarantees c.detector != nil.
func (c *Core) detOnCommit(ev detect.Event) detect.Action {
	c.foldDet(ev.PC<<8 | uint64(ev.Kind)<<5 | uint64(ev.Thread)<<1 | 2)
	c.foldDet(ev.Value)
	return c.detector.OnCommit(ev)
}

// detSetLearnOnly flips the detector's learn-only mode, folding the
// transition into the stream tag. No-op for a detector-less baseline.
func (c *Core) detSetLearnOnly(v bool) {
	if c.detector == nil {
		return
	}
	x := uint64(4)
	if v {
		x |= 1
	}
	c.foldDet(x)
	c.detector.SetLearnOnly(v)
}

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// Committed returns the committed-instruction count of thread tid.
func (c *Core) Committed(tid int) uint64 { return c.threads[tid].committed }

// CommittedTotal returns committed instructions across all threads.
func (c *Core) CommittedTotal() uint64 {
	var n uint64
	for _, t := range c.threads {
		n += t.committed
	}
	return n
}

// Halted reports whether thread tid has committed a HALT or taken an
// exception.
func (c *Core) Halted(tid int) bool {
	t := c.threads[tid]
	return t.halted || t.excepted
}

// AllHalted reports whether no thread can make further progress.
func (c *Core) AllHalted() bool {
	for _, t := range c.threads {
		if !t.halted && !t.excepted {
			return false
		}
	}
	return true
}

// Excepted reports whether thread tid committed a translation
// exception, and its message.
func (c *Core) Excepted(tid int) (bool, string) {
	t := c.threads[tid]
	return t.excepted, t.exceptMsg
}

// BranchMispredictRate returns the mean mispredict rate across threads.
func (c *Core) BranchMispredictRate() float64 {
	var lookups, miss uint64
	for _, t := range c.threads {
		lookups += t.pred.Lookups
		miss += t.pred.Mispredicts
	}
	if lookups == 0 {
		return 0
	}
	return float64(miss) / float64(lookups)
}

// SetProbe installs a callback invoked for every load/store operand
// check event at completion (before the detector sees it). The harness
// uses it for the Figure-6 value-locality characterization.
func (c *Core) SetProbe(fn func(detect.Event)) { c.probe = fn }

// SetCommitHook installs a callback invoked after every retirement with
// the thread id and its new committed-instruction count. The tandem
// fault-injection runner uses it to capture architectural state at an
// exact commit boundary.
func (c *Core) SetCommitHook(fn func(tid int, count uint64)) { c.commitHook = fn }

// SetMemHook installs a callback invoked at every load/store
// retirement with the thread id, direction, effective address, and
// committed value (the loaded value for loads, the stored value for
// stores). The workload generator's stream recorder uses it to capture
// a run's committed memory stream.
func (c *Core) SetMemHook(fn func(tid int, store bool, addr, val uint64)) { c.memHook = fn }

// WarmDetector trains the attached detector over thread 0's
// architectural load/store stream for n instructions
// (prog.Program.VisitMemOps, which interprets the program or replays
// its recorded stream) — a fast-forward functional warmup standing in
// for the paper's multi-million-instruction simulation warmup, which
// saturates the filter state machines (PBFS's sticky counters in
// particular) before measurement. The detector sees every check as a
// completion check: its filters learn, its triggers train the
// second-level and squash machines, and its counters advance. The
// actions it returns are ignored, and the pipeline does not move.
func (c *Core) WarmDetector(n uint64) {
	if c.detector == nil || n == 0 {
		return
	}
	c.threads[0].prog.VisitMemOps(n, func(pc uint64, store bool, addr, val uint64) {
		if !store {
			c.detOnComplete(detect.Event{Kind: detect.LoadAddr, Value: addr, PC: pc})
			return
		}
		c.detOnComplete(detect.Event{Kind: detect.StoreAddr, Value: addr, PC: pc})
		c.detOnComplete(detect.Event{Kind: detect.StoreValue, Value: val, PC: pc})
	})
}

// Step advances the simulation by one cycle.
func (c *Core) Step() {
	c.cycle++
	c.stats.Cycles++
	c.commit()
	c.complete()
	c.issue()
	c.dispatch()
	c.fetch()
}

// Run steps the core until every thread halts or maxCycles elapse; it
// returns the number of cycles executed.
func (c *Core) Run(maxCycles uint64) uint64 {
	start := c.cycle
	for c.cycle-start < maxCycles && !c.AllHalted() {
		c.Step()
	}
	return c.cycle - start
}

// RunUntilCommits steps until thread tid has committed at least n
// instructions in total, the thread halts, or maxCycles elapse. It
// reports whether the commit target was reached.
func (c *Core) RunUntilCommits(tid int, n uint64, maxCycles uint64) bool {
	start := c.cycle
	for c.threads[tid].committed < n {
		if c.Halted(tid) || c.cycle-start >= maxCycles {
			return c.threads[tid].committed >= n
		}
		c.Step()
	}
	return true
}

// fifo is a queue of uops, oldest first: the ROB, the LSQ, the fetch
// queue and the delay buffer. s is the live window, and every read goes
// through it; buf is the backing array from its first element. pop
// advances the window's start, and a push that finds the window at the
// end of buf slides it back to buf's front, so a queue whose occupancy
// is bounded stops allocating once buf has grown to that bound. A
// filter that compacts s in place keeps the window inside buf.
type fifo struct {
	s   []*uop
	buf []*uop
}

// push appends u.
func (q *fifo) push(u *uop) {
	if len(q.s) == cap(q.s) && len(q.s) < cap(q.buf) {
		q.s = q.buf[:copy(q.buf[:cap(q.buf)], q.s)]
	}
	q.s = append(q.s, u)
	if cap(q.s) > cap(q.buf) {
		q.buf = q.s[:0] // append grew a new backing array
	}
}

// pop removes and returns the oldest uop.
func (q *fifo) pop() *uop {
	u := q.s[0]
	q.s = q.s[1:]
	return u
}

// reset empties the queue at the front of its backing array.
func (q *fifo) reset() { q.s = q.buf[:0] }

// nextSeq allocates a global age tag.
func (c *Core) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// --- Fetch ---

// fetch brings up to FetchWidth instructions from one thread per cycle
// (round-robin) into its fetch queue, following branch predictions.
func (c *Core) fetch() {
	n := len(c.threads)
	for off := 0; off < n; off++ {
		t := c.threads[(int(c.cycle)+off)%n]
		if t.halted || t.excepted {
			continue
		}
		if t.fetchBlockedUntil > c.cycle {
			continue
		}
		if t.fetchStopped {
			// A thread that ran off the end of its code without a HALT
			// wedges once its pipeline drains; treat that as a halt.
			if len(t.rob.s) == 0 && len(t.fetchQ.s) == 0 {
				t.halted = true
			}
			continue
		}
		if len(t.fetchQ.s) >= c.cfg.FetchQueueMax {
			continue
		}
		c.fetchThread(t)
		return // one thread per cycle
	}
}

func (c *Core) fetchThread(t *threadState) {
	// One I-cache access per fetch cycle at the leading PC.
	lat := c.hier.AccessI(t.pc * 8)
	readyAt := c.cycle + uint64(lat) + uint64(c.cfg.FrontEndDepth)

	for k := 0; k < c.cfg.FetchWidth; k++ {
		if t.pc >= uint64(len(t.prog.Code)) {
			t.fetchStopped = true
			return
		}
		in := t.prog.Code[t.pc]
		// newUop hands out zeroed entries (fresh or cleared chunks), so
		// only the non-zero fields need writes — a full struct literal
		// would re-zero all 200+ bytes per fetched instruction.
		u := c.newUop()
		u.thread = t.id
		u.pc = t.pc
		u.inst = in
		u.dst = physNone
		u.oldDst = physNone
		u.lsqIndex = -1
		u.readyAt = readyAt
		c.stats.Fetched++

		nextPC := t.pc + 1
		switch in.Op {
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
			u.pred = t.pred.PredictCond(t.pc)
			if u.pred.Taken {
				nextPC = u.pred.Target
			}
		case isa.JMP:
			u.pred = branch.Prediction{Taken: true, Target: uint64(in.Imm)}
			nextPC = uint64(in.Imm)
		case isa.JAL:
			u.isCall = true
			t.pred.PredictJump(t.pc, true, false) // RAS push
			u.pred = branch.Prediction{Taken: true, Target: uint64(in.Imm)}
			nextPC = uint64(in.Imm)
		case isa.JALR:
			u.isRet = in.Rs1 == isa.RLink
			u.pred = t.pred.PredictJump(t.pc, false, u.isRet)
			if u.pred.Taken {
				nextPC = u.pred.Target
			}
		case isa.HALT:
			u.halt = true
		}
		u.predPC = nextPC
		t.fetchQ.push(u)
		t.pc = nextPC
		c.trace(TraceFetch, u, "")

		if u.halt {
			t.fetchStopped = true
			return
		}
		if u.inst.IsBranch() && u.predPC != u.pc+1 {
			return // stop at a predicted-taken branch
		}
	}
}

// --- Dispatch/Rename ---

// dispatch renames and inserts up to DecodeWidth instructions per cycle
// into the ROB/IQ/LSQ, round-robin across threads.
func (c *Core) dispatch() {
	budget := c.cfg.DecodeWidth
	n := len(c.threads)
	for off := 0; off < n && budget > 0; off++ {
		t := c.threads[(int(c.cycle)+off)%n]
		for budget > 0 && len(t.fetchQ.s) > 0 {
			u := t.fetchQ.s[0]
			if u.readyAt > c.cycle {
				break
			}
			if !c.dispatchOne(t, u) {
				break // structural stall
			}
			t.fetchQ.pop()
			budget--
		}
	}
}

// dispatchOne renames u and allocates its queue entries; it reports
// whether dispatch succeeded (false = structural stall).
func (c *Core) dispatchOne(t *threadState, u *uop) bool {
	if len(t.rob.s) >= c.cfg.ROBPerThread {
		c.stats.ROBFullStalls++
		return false
	}
	needsIQ := u.inst.Op != isa.NOP && u.inst.Op != isa.HALT
	if needsIQ && c.iqUsed >= len(c.iq) && !c.evictFromDelayBuffer() {
		c.stats.IQFullStalls++
		return false
	}
	if u.isMem() && len(t.lsq.s) >= c.cfg.LSQPerThread {
		c.stats.LSQFullStalls++
		return false
	}

	// Rename sources.
	srcs := u.inst.SrcRegs()
	u.nsrc = len(srcs)
	for i, r := range srcs {
		u.src[i] = t.rat[r]
	}
	// Allocate destination.
	if u.inst.HasDest() && u.inst.Rd != isa.RZero {
		p := c.rf.alloc(u.inst.Rd)
		if p == physNone {
			c.stats.RegFullStalls++
			return false
		}
		c.schedAllocated(p)
		u.dst = p
		u.oldDst = t.rat[u.inst.Rd]
		t.rat[u.inst.Rd] = p
	}
	// Checkpoint the RAT for branches resolved at execute, and for
	// atomics (a detector rollback stops at an executed atomic and
	// restores its checkpoint instead).
	if u.inst.IsCondBranch() || u.inst.Op == isa.JALR || u.inst.IsAtomic() {
		u.ratCkpt = c.newCkpt(len(t.rat), u.seq)
		copy(u.ratCkpt, t.rat)
	}

	u.state = stDispatched
	t.rob.push(u)
	if u.isMem() {
		u.lsqIndex = len(t.lsq.s)
		t.lsq.push(u)
	}
	if needsIQ {
		c.iqInsert(u)
	} else {
		// NOP/HALT complete immediately.
		u.state = stCompleted
	}
	c.stats.Dispatched++
	c.trace(TraceDispatch, u, "")
	return true
}

// schedTouch invalidates the empty-gather memo (see schedClean).
func (c *Core) schedTouch() { c.schedClean = false }

// iqSchedEnt is the issue gather's compact view of one IQ entry; see
// Core.iqSched.
type iqSchedEnt struct {
	seq    uint64
	src0   physID
	src1   physID
	nsrc   uint8
	thread uint8
	load   bool
	atomic bool
}

// iqInsert places u into the lowest free IQ slot.
func (c *Core) iqInsert(u *uop) {
	c.schedTouch()
	i := bits.TrailingZeros64(^c.iqMask)
	if i >= len(c.iq) {
		panic("pipeline: iqInsert with no free slot")
	}
	c.iq[i] = u
	c.iqMask |= 1 << uint(i)
	c.iqDisp |= 1 << uint(i) // dispatchOne inserts in stDispatched
	c.iqSched[i] = iqSchedEnt{
		seq:    u.seq,
		src0:   u.src[0],
		src1:   u.src[1],
		nsrc:   uint8(u.nsrc),
		thread: uint8(u.thread),
		load:   u.isLoad(),
		atomic: u.inst.IsAtomic(),
	}
	u.inIQ = true
	u.iqSlot = int8(i)
	c.iqUsed++
	c.schedRegister(i)
}

// iqRemove frees u's IQ slot.
func (c *Core) iqRemove(u *uop) {
	if !u.inIQ {
		return
	}
	c.schedTouch()
	i := uint(u.iqSlot)
	c.schedDeregister(int(i))
	c.iq[i] = nil
	c.iqMask &^= 1 << i
	c.iqDisp &^= 1 << i
	c.iqUsed--
	u.inIQ = false
}

// schedRegister records slot i's wakeup state under the current ready
// bits: each distinct not-ready source counts in iqPend and enrolls
// the slot in rfWait; a slot with none is immediately issue-ready.
// rfRef counts every source reference of a live slot — ready or not —
// so schedAllocated can detect in O(1) that some slot's cached
// readiness might mention a just-allocated register.
func (c *Core) schedRegister(i int) {
	e := &c.iqSched[i]
	bit := uint64(1) << uint(i)
	pend := uint8(0)
	ready := c.rf.ready
	if e.nsrc >= 1 {
		c.rfRef[e.src0]++
		if !ready[e.src0] {
			c.rfWait[e.src0] |= bit
			pend++
		}
	}
	if e.nsrc >= 2 {
		c.rfRef[e.src1]++
		if e.src1 != e.src0 && !ready[e.src1] {
			c.rfWait[e.src1] |= bit
			pend++
		}
	}
	c.iqPend[i] = pend
	if pend == 0 {
		c.iqReady |= bit
	} else {
		c.iqReady &^= bit
	}
}

// schedDeregister erases slot i's wakeup state (unconditional bit
// clears: a source whose wakeup was already consumed simply has no
// bit to clear).
func (c *Core) schedDeregister(i int) {
	e := &c.iqSched[i]
	bit := uint64(1) << uint(i)
	if e.nsrc >= 1 {
		c.rfRef[e.src0]--
		c.rfWait[e.src0] &^= bit
	}
	if e.nsrc >= 2 {
		c.rfRef[e.src1]--
		c.rfWait[e.src1] &^= bit
	}
	c.iqReady &^= bit
}

// schedWake consumes p turning ready: every slot waiting on p drops
// one pending source and becomes issue-ready at zero. Callers pass
// physNone freely (writes and frees of no-destination uops).
func (c *Core) schedWake(p physID) {
	if int(p) >= len(c.rfWait) {
		return
	}
	for m := c.rfWait[p]; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if c.iqPend[i]--; c.iqPend[i] == 0 {
			c.iqReady |= 1 << uint(i)
		}
	}
	c.rfWait[p] = 0
}

// schedAllocated handles the one ready->false transition the wakeup
// bookkeeping cannot see coming: allocating p clears its ready bit,
// invalidating any slot that cached p as ready. Fault-free this never
// happens — rename reads only live mappings, and a live register is
// not freed while a consumer sits in the IQ — so rfRef[p] is zero and
// this is a single branch. A corrupted rename table (FlipRATBit) can
// make a waiting uop source a free register; the fix-up re-derives
// the registration of every live slot referencing p so the cached
// readiness stays exact even then.
func (c *Core) schedAllocated(p physID) {
	if c.rfRef[p] == 0 {
		return
	}
	for m := c.iqMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		e := &c.iqSched[i]
		if (e.nsrc >= 1 && e.src0 == p) || (e.nsrc >= 2 && e.src1 == p) {
			c.schedDeregister(i)
			c.schedRegister(i)
		}
	}
}

// rebuildSched rebuilds the wakeup state from scratch — used after a
// predecessor replay marks completed destinations not-ready again,
// the one event that flips ready bits under already-registered slots.
func (c *Core) rebuildSched() {
	clear(c.rfWait)
	clear(c.rfRef)
	c.iqReady = 0
	for m := c.iqMask; m != 0; m &= m - 1 {
		c.schedRegister(bits.TrailingZeros64(m))
	}
}

// evictFromDelayBuffer frees an IQ slot occupied by a completed
// instruction when a newly-arriving instruction needs the space: the
// oldest delay-buffer entry is replaced (Section 3.3). The paper
// conservatively squashes the whole buffer on a replacement because its
// hardware cannot tell which younger entries depended on the replaced
// one; this implementation's replay re-issues through ordinary wakeup
// (a marked consumer whose producer is gone simply reads the register
// file), so replacing only the head is safe and preserves far more
// replay coverage.
func (c *Core) evictFromDelayBuffer() bool {
	if len(c.delayBuf.s) == 0 {
		return false
	}
	old := c.delayBuf.pop()
	old.inDelayBuf = false
	c.iqRemove(old)
	c.stats.DelayBufFlushes++
	return c.iqUsed < len(c.iq)
}

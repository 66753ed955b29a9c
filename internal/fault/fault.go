// Package fault implements the paper's fault-injection methodology
// (Section 4): tandem golden/faulty simulation with single-bit flips
// into the physical register file (emulating back-end control and
// datapath faults), the load-store queue, and the rename table, in
// McPAT-derived area proportions (front-end 20%, back-end 80% of which
// LSQ 8%). A fault is classified after a run window of committed
// instructions by comparing architectural state against the golden run:
// a differing exception stream is "noisy", identical state is "masked",
// and the rest is silent data corruption (SDC) — the faults the
// detection schemes are measured on.
package fault

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"faulthound/internal/detect"
	"faulthound/internal/isa"
	"faulthound/internal/obs"
	"faulthound/internal/pipeline"
	"faulthound/internal/stats"
	"faulthound/internal/system"
)

// Structure identifies the injected structure.
type Structure uint8

// Injection structures (Section 4).
const (
	RegFile Structure = iota
	RenameTable
	LSQ
)

// String names the structure.
func (s Structure) String() string {
	switch s {
	case RegFile:
		return "regfile"
	case RenameTable:
		return "rename"
	case LSQ:
		return "lsq"
	}
	return "?"
}

// Outcome is the architectural consequence of one injected fault.
type Outcome uint8

// Fault outcomes (Figure 7 categories).
const (
	// Masked: state after the run window equals the golden run's.
	Masked Outcome = iota
	// Noisy: the fault raised a translation exception (or hung the
	// pipeline, detectable by a watchdog) — detected "for free".
	Noisy
	// SDC: silent data corruption — state differs with no exception.
	SDC
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case Noisy:
		return "noisy"
	case SDC:
		return "sdc"
	}
	return "?"
}

// Config parameterizes a campaign. The paper injects 15,000 faults per
// run; the default here is scaled down for tractable reproduction and
// can be raised.
type Config struct {
	// Injections is the number of single-bit faults.
	Injections int
	// WarmupCycles runs the golden machine before the injection region
	// (cache and filter warmup, Table 1's warmup role).
	WarmupCycles uint64
	// SpreadCycles is the injection window: each fault lands at a
	// uniformly random cycle within this many cycles after warmup (the
	// paper uses a 500-cycle period).
	SpreadCycles uint64
	// WindowInstr is the run window after injection before state
	// comparison (the paper uses 1000 instructions).
	WindowInstr uint64
	// FrontEndPct and LSQPct set the injection proportions; the
	// remainder goes to the register file. Paper: 20% front end, 8%
	// LSQ (of the total), 72% register file.
	FrontEndPct float64
	LSQPct      float64
	// InFlightBias is the fraction of register-file-class injections
	// directed at in-flight destination registers. The paper injects
	// into the register file to "also emulate faults in the back-end
	// control and datapath" — faults in FU outputs and bypass latches
	// land on young, in-flight values, which is what this bias models.
	InFlightBias float64
	// DetectorWarmupInstr fast-forwards the detector's filters over the
	// architectural value stream before the timing warmup (standing in
	// for the paper's 50M-instruction runs, which saturate the filter
	// state machines).
	DetectorWarmupInstr uint64
	// MaxCyclesPerRun bounds each faulty run (hang watchdog).
	MaxCyclesPerRun uint64
	// Seed drives every random choice; identical seeds give identical
	// injection descriptor streams across schemes, pairing campaigns.
	Seed uint64

	// Deprecated: inert. Prepare always checkpoints the golden trace
	// every 64 cycles; nothing reads this field.
	CheckpointCycles uint64 `json:"-"`
	// Deprecated: inert. RunOne always exits at provable reconvergence
	// with the golden trace; nothing reads this field.
	EarlyExit bool `json:"-"`
}

// MaxInjections is the most injections one campaign cell may draw, far
// above the paper's 15,000. DrawInjections allocates every descriptor
// up front, so a fault config from outside (an HTTP body, a shard
// request) must be bounded before anything draws from it.
const MaxInjections = 1 << 20

// Validate rejects a configuration DrawInjections cannot draw from: an
// injection count outside [1, MaxInjections], or an empty injection
// spread. Every path that takes a fault config from outside calls it
// before allocating.
func (c Config) Validate() error {
	if c.Injections < 1 || c.Injections > MaxInjections {
		return fmt.Errorf("fault: Injections is %d, want 1 to %d", c.Injections, MaxInjections)
	}
	if c.SpreadCycles == 0 {
		return fmt.Errorf("fault: SpreadCycles is 0: injections need a spread window of at least one cycle")
	}
	return nil
}

// DefaultConfig returns the paper's parameters with a scaled-down
// injection count.
func DefaultConfig() Config {
	return Config{
		Injections:          400,
		WarmupCycles:        100000,
		SpreadCycles:        500,
		WindowInstr:         1000,
		FrontEndPct:         0.20,
		LSQPct:              0.08,
		InFlightBias:        0.4,
		DetectorWarmupInstr: 1_000_000,
		MaxCyclesPerRun:     60000,
		Seed:                0xfa17,
	}
}

// Injection is one pre-drawn fault descriptor. Drawing all descriptors
// from the seed up front (independent of simulator state) keeps
// campaigns with different detectors paired injection-by-injection.
type Injection struct {
	Structure   Structure
	CycleOffset uint64
	Bit         uint
	// InFlight directs a register-file fault at an in-flight
	// destination register (datapath emulation) instead of an arbitrary
	// allocated register.
	InFlight bool
	// SiteSeed selects the concrete site (which register, LSQ entry,
	// or RAT entry) among the candidates alive at injection time.
	SiteSeed uint64
}

// DrawInjections derives the descriptor list from cfg.
func DrawInjections(cfg Config) []Injection {
	rng := stats.NewRNG(cfg.Seed)
	out := make([]Injection, cfg.Injections)
	for i := range out {
		inj := Injection{
			CycleOffset: rng.Uint64n(cfg.SpreadCycles),
			Bit:         uint(rng.Intn(64)),
			SiteSeed:    rng.Uint64(),
		}
		p := rng.Float64()
		switch {
		case p < cfg.FrontEndPct:
			inj.Structure = RenameTable
		case p < cfg.FrontEndPct+cfg.LSQPct:
			inj.Structure = LSQ
		default:
			inj.Structure = RegFile
			inj.InFlight = rng.Bool(cfg.InFlightBias)
		}
		out[i] = inj
	}
	return out
}

// Result records one injected fault's consequence.
type Result struct {
	Injection Injection
	Outcome   Outcome
	// Hung marks a watchdog timeout (folded into Noisy).
	Hung bool
	// Detected is true when the detector declared a fault (the
	// singleton comparison of Section 3.5) during the window.
	Detected bool
	// Detector activity over the window in EXCESS of the golden run's
	// background (false-positive) activity over the same commit range —
	// the activity attributable to the fault, for the Figure-11
	// breakdown. Clamped at zero.
	Triggers, Suppressed, Replays, Rollbacks, Singletons uint64
	// DetectLatency is the detection latency of a Detected run: the
	// cycles from the flip to the first in-window detector action
	// (replay, rollback or singleton), at least 1. Zero on undetected
	// runs, so their journal records omit it.
	DetectLatency uint64 `json:",omitempty"`
}

// actions is a detector's cumulative action count: replays, rollbacks
// and singletons.
func actions(s detect.Stats) uint64 { return s.Replays + s.Rollbacks + s.Singletons }

// sub returns a-b clamped at zero.
func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Campaign is the outcome of one injection campaign.
type Campaign struct {
	Config  Config
	Results []Result
}

// Classification returns the Figure-7 fractions.
func (c *Campaign) Classification() (masked, noisy, sdc int) {
	for _, r := range c.Results {
		switch r.Outcome {
		case Masked:
			masked++
		case Noisy:
			noisy++
		case SDC:
			sdc++
		}
	}
	return
}

// Prepared is a fault campaign after golden-run preparation: the
// warmed golden machine, the golden architectural-hash trace, the
// detector's false-positive background, the golden-checkpoint ring and
// the reconvergence digests. The machine is a system.System: a
// single-core cell's core is a one-core system (Prepare), a multicore
// cell's the whole machine (PrepareSystem). Every field except the
// atomic perf counters is read-only after preparation, so any number of
// goroutines may call RunOne concurrently — each injection snapshots
// the shared golden machine into its Worker's arena and mutates only
// that snapshot.
type Prepared struct {
	cfg    Config
	injs   []Injection
	golden *system.System
	// hashes and background are keyed by core 0/thread 0's commit count
	// (the clock) and are never written after preparation.
	hashes     map[uint64]uint64
	background map[uint64]detect.Stats
	// fpRate is the golden (fault-free) detector action rate over the
	// traced window — the campaign's false-positive measurement, free
	// because the golden run executes the window anyway.
	fpRate float64

	// baseCycle is golden's cycle at the clone point — the origin every
	// injection offset, checkpoint index, and digest index is relative
	// to.
	baseCycle uint64
	// ckpts[j] is the golden trace at baseCycle + (j+1)*ckptEvery,
	// frozen against golden: it keeps only the L2 lines that differ from
	// golden's (SetCloneBaseline) and the memory words the trace wrote,
	// over golden's image (Clone of the trace snapshot). Empty when
	// ckptEvery is 0.
	ckptEvery uint64
	ckpts     []*system.System
	// digestEvery is the golden-digest cadence in cycles (0 without
	// early exit); digests[i] is the golden trace's state at baseCycle +
	// i*digestEvery.
	digestEvery uint64
	digests     []digestRec
	// endRecs maps a clock commit count to the golden trace's state
	// at the end of the cycle that retired it — the extrapolation
	// record an early-exiting run reads its final counters from.
	endRecs map[uint64]endRec
	// decided holds the runs prepare decided at their injection instant,
	// sorted by SiteSeed (see decide). Empty without early exit.
	decided []decision

	perf perfCounters
}

// digestRec is one golden reconvergence digest plus the golden
// detector counters at the same cycle. A faulty run that matches all
// three has provably rejoined the golden trajectory.
type digestRec struct {
	pd  system.Digest
	det detect.Stats
	fd  uint64 // faults declared, summed over the cores
}

// endRec is the golden trace's state at the end of the cycle that
// retired a given clock commit: the cycle itself (for the hang
// predicate) and the counters a converged run will end the window
// with.
type endRec struct {
	cycle uint64
	det   detect.Stats
	fd    uint64
}

// rule names the proof by which prepare decides a run at its injection
// instant: the flip lands where nothing can ever read it, so the run is
// the golden trace with one unobservable bit changed.
type rule uint8

const (
	undecided rule = iota
	// unnamed: a rename-table entry of an architectural register the
	// victim thread's code never names (pipeline.Core.NamesReg).
	unnamed
	// dead: a physical register no in-flight operand or named rename
	// entry references, free or held only by unnamed registers
	// (pipeline.Core.RegDead).
	dead
	// unwritten: a physical register whose producer has not written
	// back; the write-back overwrites the flip before any consumer can
	// read it (pipeline.Core.RegUnwritten).
	unwritten
)

// String names the rule, as the "decided" instant's Arg.
func (r rule) String() string {
	switch r {
	case unnamed:
		return "unnamed"
	case dead:
		return "dead"
	case unwritten:
		return "unwritten"
	}
	return "undecided"
}

// decision is one run prepare decided at its injection instant: the
// descriptor, the rule, and the detector counters of its Result, whose
// Outcome is Masked and which is never Detected. 24 bytes a run: the
// counters are the golden trace's activity over the window in excess
// of its background, a handful of checks at most, and a run whose
// counters do not fit 16 bits is simply left undecided.
type decision struct {
	seed uint64 // the descriptor's SiteSeed, the sort key
	idx  uint32 // the descriptor's index in injs
	rule rule
	// n holds Triggers, Suppressed, Replays, Rollbacks and Singletons.
	n [5]uint16
}

// result returns the decided run's Result.
func (d decision) result(inj Injection) Result {
	return Result{
		Injection:  inj,
		Outcome:    Masked,
		Triggers:   uint64(d.n[0]),
		Suppressed: uint64(d.n[1]),
		Replays:    uint64(d.n[2]),
		Rollbacks:  uint64(d.n[3]),
		Singletons: uint64(d.n[4]),
	}
}

// decisionFor returns the decision prepare made for inj. Only the drawn
// descriptor itself matches, not another that shares its SiteSeed, so
// a custom descriptor takes the simulated path.
func (p *Prepared) decisionFor(inj Injection) (decision, bool) {
	i, _ := slices.BinarySearchFunc(p.decided, inj.SiteSeed, func(d decision, seed uint64) int {
		return cmp.Compare(d.seed, seed)
	})
	for ; i < len(p.decided) && p.decided[i].seed == inj.SiteSeed; i++ {
		if p.injs[p.decided[i].idx] == inj {
			return p.decided[i], true
		}
	}
	return decision{}, false
}

// setCounters sets res's detector counters: the activity from ds0 to
// ds in excess of the golden background bg over the same commit range,
// each clamped at zero.
func (res *Result) setCounters(ds, ds0, bg detect.Stats) {
	res.Triggers = sub(ds.Triggers-ds0.Triggers, bg.Triggers)
	res.Suppressed = sub(ds.Suppressed-ds0.Suppressed, bg.Suppressed)
	res.Replays = sub(ds.Replays-ds0.Replays, bg.Replays)
	res.Rollbacks = sub(ds.Rollbacks-ds0.Rollbacks, bg.Rollbacks)
	res.Singletons = sub(ds.Singletons-ds0.Singletons, bg.Singletons)
}

// backgroundOver returns the golden run's detector activity between
// clock commits from and to: the background a run over that range
// subtracts, zero when to was never recorded.
func (p *Prepared) backgroundOver(from, to uint64) detect.Stats {
	if b1, ok := p.background[to]; ok {
		return b1.Sub(p.background[from])
	}
	return detect.Stats{}
}

// digestCadence is how many cycles apart golden reconvergence digests
// are recorded. Smaller catches reconvergence sooner (more window
// cycles saved) but costs more Prepare time and memory; 16 keeps the
// added golden-trace work under a few percent while bounding the
// post-reconvergence overshoot to 15 cycles.
const digestCadence = 16

// checkpointCadence is how many cycles apart Prepare checkpoints the
// golden trace inside the injection spread. A faulty run forks from
// the nearest checkpoint at or before its injection cycle, so it
// fast-forwards at most checkpointCadence-1 cycles. Each checkpoint is
// frozen to its difference from golden, so the ring at most doubles a
// Prepared's retained heap (TestPreparedRetainedHeap).
const checkpointCadence = 64

// Prepare performs the golden-run phase of a campaign: detector
// fast-forward, pipeline warmup, and the golden hash/background trace
// over the injection spread plus run window, with a golden checkpoint
// every checkpointCadence cycles of the spread and a reconvergence
// digest every digestCadence cycles. mk must build a fresh,
// deterministic core (program + detector); the runner wraps it as a
// one-core machine (system.Of). The returned Prepared is immutable and
// safe for concurrent RunOne calls.
func Prepare(mk func() *pipeline.Core, cfg Config) (*Prepared, error) {
	return PrepareSystem(oneCore(mk), cfg)
}

// PrepareSystem is Prepare for a multicore machine — the paper's
// methodology for the multithreaded benchmarks, where "faults are
// injected in all the cores, each of which runs two threads". mk must
// build a fresh, deterministic machine. Each injection lands on a
// victim core drawn from its SiteSeed; the clock is core 0/thread 0's
// commit count; the tandem comparison hashes the shared memory and
// every hardware thread's live architectural registers
// (system.System.ArchHash); an exception on any thread makes the run
// noisy; and detection reads the faults declared over all cores. On a
// one-core machine of one-thread cores these are Prepare's rules.
func PrepareSystem(mk func() *system.System, cfg Config) (*Prepared, error) {
	return prepare(mk, cfg, checkpointCadence, true)
}

// oneCore turns a core factory into a factory of one-core machines.
func oneCore(mk func() *pipeline.Core) func() *system.System {
	return func() *system.System { return system.Of(mk()) }
}

// prepare is Prepare with the replay acceleration spelled out: a
// golden checkpoint every ckptEvery cycles (0: none, so every run
// fast-forwards from the spread start) and, with early, the digests
// reconvergence early exit matches against, the runs decided at their
// injection instant (decide) and the deadlock rule. Results do not
// depend on either; the tests prepare without them for the reference
// the accelerated runs must reproduce bit for bit.
func prepare(mk func() *system.System, cfg Config, ckptEvery uint64, early bool) (*Prepared, error) {
	golden := mk()
	golden.WarmDetectors(cfg.DetectorWarmupInstr)
	golden.Run(cfg.WarmupCycles)
	if golden.AllHalted() {
		return nil, fmt.Errorf("fault: golden run halted during warmup")
	}
	if exc, msg := golden.AnyExcepted(); exc {
		return nil, fmt.Errorf("fault: golden run excepted during warmup: %s", msg)
	}

	// Record, at every commit count the faulty runs can target, the
	// golden architectural hash and the golden detector counters (the
	// false-positive background against which fault-attributable
	// activity is measured). The trace runs on a throwaway snapshot —
	// a deep copy whose data memory is an overlay over golden's — so
	// the shared golden machine itself is never stepped, and therefore
	// never mutated, after this function returns. From here on golden
	// is a frozen fork origin and the baseline every checkpoint is
	// stored against, so a worker's per-run hierarchy restore rewrites
	// only the L2 lines its last window touched (mem.Cache.SetBaseline).
	gold := golden.Snapshot(system.NewSnapshotArena())
	golden.SetCloneBaseline(golden)
	p := &Prepared{
		cfg:        cfg,
		injs:       DrawInjections(cfg),
		golden:     golden,
		hashes:     make(map[uint64]uint64),
		background: make(map[uint64]detect.Stats),
		baseCycle:  golden.Cycle(),
		ckptEvery:  ckptEvery,
	}
	hashes, background := p.hashes, p.background
	// pendingCommits collects the clock commit counts retired inside
	// the cycle being stepped; the step helper drains them into endRecs
	// once the cycle finishes, so each record carries true end-of-cycle
	// counters (commit-hook counters are mid-cycle: later commits and
	// completion checks in the same cycle still move them).
	var pendingCommits []uint64
	// Detector counters only grow, so the background leaves out
	// all-zero counters (a machine without detectors): a missing entry
	// reads as zero, which is what it would have held.
	recordBackground := func(count uint64, ds detect.Stats) {
		if ds != (detect.Stats{}) {
			background[count] = ds
		}
	}
	clock := gold.Core(0)
	clock.SetCommitHook(func(tid int, count uint64) {
		if tid == 0 {
			hashes[count] = gold.ArchHash()
			recordBackground(count, gold.DetectorStats())
			pendingCommits = append(pendingCommits, count)
		}
	})
	// Anchor the background at the clone point so injections at offset
	// zero (injCount == warmup commit count) subtract correctly.
	hashes[clock.Committed(0)] = golden.ArchHash()
	recordBackground(clock.Committed(0), golden.DetectorStats())
	if early {
		p.digestEvery = digestCadence
		p.endRecs = make(map[uint64]endRec)
		p.digests = append(p.digests, digestRec{
			pd:  gold.CaptureDigest(),
			det: gold.DetectorStats(),
			fd:  gold.FaultsDeclared(),
		})
	}
	// step advances the golden trace one cycle and records the
	// reconvergence bookkeeping at end-of-cycle boundaries: a digest
	// every digestCadence cycles, an endRec per retired instruction,
	// and a checkpoint every ckptEvery cycles inside the injection
	// spread, frozen at once to its difference from golden.
	step := func() {
		gold.Step()
		off := gold.Cycle() - p.baseCycle
		if p.digestEvery != 0 {
			if off%p.digestEvery == 0 {
				p.digests = append(p.digests, digestRec{
					pd:  gold.CaptureDigest(),
					det: gold.DetectorStats(),
					fd:  gold.FaultsDeclared(),
				})
			}
			for _, cnt := range pendingCommits {
				p.endRecs[cnt] = endRec{
					cycle: gold.Cycle(),
					det:   gold.DetectorStats(),
					fd:    gold.FaultsDeclared(),
				}
			}
		}
		pendingCommits = pendingCommits[:0]
		if n := ckptEvery; n != 0 && off%n == 0 && off+1 <= cfg.SpreadCycles {
			ck := gold.Clone()
			ck.SetCloneBaseline(golden)
			p.ckpts = append(p.ckpts, ck)
		}
	}
	// With early, the trace reaches every descriptor's injection instant
	// on the way through the spread: order lists the descriptors by
	// cycle offset, and at each offset the trace draws their sites.
	var order []uint32
	var pend []pending
	var sc siteScratch
	if early {
		order = make([]uint32, len(p.injs))
		for i := range order {
			order[i] = uint32(i)
		}
		slices.SortFunc(order, func(a, b uint32) int {
			return cmp.Compare(p.injs[a].CycleOffset, p.injs[b].CycleOffset)
		})
	}
	ds0 := gold.DetectorStats()
	commits0 := clock.Committed(0)
	for off := uint64(0); off < cfg.SpreadCycles; off++ {
		for ; len(order) > 0 && p.injs[order[0]].CycleOffset == off; order = order[1:] {
			if r := drawSite(gold, p.injs[order[0]], &sc).unread(gold); r != undecided {
				pend = append(pend, pending{idx: order[0], rule: r,
					injCount: clock.Committed(0), ds0: gold.DetectorStats(), fd0: gold.FaultsDeclared()})
			}
		}
		step()
	}
	maxInjCount := clock.Committed(0)
	target := maxInjCount + cfg.WindowInstr + 64
	for clock.Committed(0) < target && !gold.AllHalted() {
		step()
	}
	if exc, msg := gold.AnyExcepted(); exc {
		return nil, fmt.Errorf("fault: golden run excepted in window: %s", msg)
	}
	ds := gold.DetectorStats()
	if commits := clock.Committed(0) - commits0; commits > 0 {
		p.fpRate = float64(actions(ds)-actions(ds0)) / float64(commits)
	}
	p.decide(pend)
	return p, nil
}

// pending is a run whose flip the trace found unreadable at its
// injection instant, with what its Result needs from that instant: the
// clock's commits and the detectors' counters and faults declared.
type pending struct {
	idx      uint32
	rule     rule
	injCount uint64
	ds0      detect.Stats
	fd0      uint64
}

// decide stores the Results of the pending runs once the trace has
// recorded their windows' ends. Such a run is the golden trace with one
// bit no reader can observe, so its Result is what an early exit at
// the injection cycle builds: Masked, with the golden counters at the
// target commit (endRecs) less those at the flip and less the
// background. It takes the early exit's precondition (canEarly in
// RunOne): the golden trace retires the target within the watchdog. It
// also needs the golden trace to declare no fault over the window, so
// the run is not Detected and has no detection latency.
func (p *Prepared) decide(pend []pending) {
	p.decided = make([]decision, 0, len(pend))
	for _, d := range pend {
		inj := p.injs[d.idx]
		target := d.injCount + p.cfg.WindowInstr
		er, ok := p.endRecs[target]
		if !ok || er.cycle-(p.baseCycle+inj.CycleOffset) > p.cfg.MaxCyclesPerRun || er.fd != d.fd0 {
			continue
		}
		var res Result
		res.setCounters(er.det, d.ds0, p.backgroundOver(d.injCount, target))
		dec := decision{seed: inj.SiteSeed, idx: d.idx, rule: d.rule}
		fits := true
		for i, n := range [...]uint64{res.Triggers, res.Suppressed, res.Replays, res.Rollbacks, res.Singletons} {
			fits = fits && n <= 0xffff
			dec.n[i] = uint16(n)
		}
		if fits {
			p.decided = append(p.decided, dec)
		}
	}
	slices.SortFunc(p.decided, func(a, b decision) int {
		return cmp.Or(cmp.Compare(a.seed, b.seed), cmp.Compare(a.idx, b.idx))
	})
}

// Config returns the campaign configuration.
func (p *Prepared) Config() Config { return p.cfg }

// Injections returns the pre-drawn descriptor list. The slice is shared
// and must not be modified.
func (p *Prepared) Injections() []Injection { return p.injs }

// FPRate returns the golden run's fault-free detector action rate
// (replays + rollbacks + singletons per committed instruction) over the
// traced window.
func (p *Prepared) FPRate() float64 { return p.fpRate }

// Worker is one goroutine's reusable injection state: the snapshot
// arena every faulty machine it runs is rebuilt in, and the sink its
// runs report lifecycle events to. The arena makes successive runs
// nearly allocation-free — the faulty cores' containers, detector
// tables, and cache tags are rebuilt in place, and their memory is one
// copy-on-write overlay over the immutable golden image — and it
// survives switches between Prepared campaigns, growing when a larger
// machine first runs on it. A Worker serves one goroutine at a time;
// give every goroutine its own.
type Worker struct {
	arena *system.SnapshotArena
	sites siteScratch
	sink  obs.Sink
	// Audit is the fraction of runs decided without simulating their
	// whole window, in [0, 1], that the worker re-checks against
	// full-window simulation (see RunOne). It is a property of the
	// worker, not of the campaign: it never reaches a Config, a spec
	// hash or a manifest, and no Result depends on it. Zero, the
	// default, audits nothing.
	Audit float64
}

// NewWorker returns a Worker whose runs emit injection-lifecycle
// events to sink: an "inject" instant at the flip (Cycle = injection
// cycle, Arg = the structure), a "fork" instant when the run forked
// from a golden checkpoint, an instant per detector action in the
// window ("replay", "rollback", "singleton"), a "detect" instant at the
// first such action (Arg = the action kind), from which sinks derive
// detection latency in cycles, an "early-exit" instant on
// reconvergence (Arg = the window cycles it saved) and a "deadlock"
// instant at a provable deadlock (Arg = the window cycles not
// simulated). A run decided at its injection instant emits "inject",
// then "decided" (Arg = the rule: "unnamed", "dead" or "unwritten"),
// and nothing else. The action instants come from the detectors'
// counters, compared after every window step; no tracer is attached to
// the cores.
// A nil sink disables them; the disabled path costs one pointer test.
func NewWorker(sink obs.Sink) *Worker {
	return &Worker{arena: system.NewSnapshotArena(), sink: sink}
}

// Perf aggregates the replay-acceleration effect over every run so far
// on one Prepared: how much pre-injection fast-forwarding checkpoint
// forking removed, and how many runs each rule decided without
// simulating their whole window.
type Perf struct {
	// Runs is the number of completed (uncancelled) injection runs.
	Runs uint64
	// EarlyExits counts runs classified by reconvergence early-exit at
	// a golden digest check.
	EarlyExits uint64
	// Decided counts runs decided at their injection instant, without a
	// fork; Deadlocks counts runs classified Hung at a provable deadlock
	// instead of at the watchdog.
	Decided, Deadlocks uint64
	// ForkCyclesSaved is the total pre-injection cycles not simulated
	// because runs forked from a checkpoint; OffsetCycles is the total
	// they would have simulated from the spread start. Decided runs add
	// to neither.
	ForkCyclesSaved uint64
	OffsetCycles    uint64
	// Audits counts runs decided without simulating their whole window
	// (early exits, decided runs and deadlocks) that a Worker's audit
	// re-simulated to the end of it; AuditViolations counts those whose
	// full-window Result differed (each failed its run).
	Audits          uint64
	AuditViolations uint64
}

// Add returns the counters of pf and o summed, as for the cells of
// one campaign.
func (pf Perf) Add(o Perf) Perf {
	return Perf{
		Runs:            pf.Runs + o.Runs,
		EarlyExits:      pf.EarlyExits + o.EarlyExits,
		Decided:         pf.Decided + o.Decided,
		Deadlocks:       pf.Deadlocks + o.Deadlocks,
		ForkCyclesSaved: pf.ForkCyclesSaved + o.ForkCyclesSaved,
		OffsetCycles:    pf.OffsetCycles + o.OffsetCycles,
		Audits:          pf.Audits + o.Audits,
		AuditViolations: pf.AuditViolations + o.AuditViolations,
	}
}

// EarlyExitFrac returns the fraction of runs ended by reconvergence
// early-exit.
func (pf Perf) EarlyExitFrac() float64 {
	if pf.Runs == 0 {
		return 0
	}
	return float64(pf.EarlyExits) / float64(pf.Runs)
}

// ForkSavedFrac returns the fraction of pre-injection fast-forward
// cycles eliminated by checkpoint forking.
func (pf Perf) ForkSavedFrac() float64 {
	if pf.OffsetCycles == 0 {
		return 0
	}
	return float64(pf.ForkCyclesSaved) / float64(pf.OffsetCycles)
}

// perfCounters is Perf's concurrent-update form: RunOne callers on any
// number of goroutines add to it without coordination.
type perfCounters struct {
	runs            atomic.Uint64
	earlyExits      atomic.Uint64
	decided         atomic.Uint64
	deadlocks       atomic.Uint64
	forkCyclesSaved atomic.Uint64
	offsetCycles    atomic.Uint64
	audits          atomic.Uint64
	auditViolations atomic.Uint64
}

// Perf returns a snapshot of the acceleration counters. It reads Runs
// first (see the end of RunOne).
func (p *Prepared) Perf() Perf {
	return Perf{
		Runs:            p.perf.runs.Load(),
		EarlyExits:      p.perf.earlyExits.Load(),
		Decided:         p.perf.decided.Load(),
		Deadlocks:       p.perf.deadlocks.Load(),
		ForkCyclesSaved: p.perf.forkCyclesSaved.Load(),
		OffsetCycles:    p.perf.offsetCycles.Load(),
		Audits:          p.perf.audits.Load(),
		AuditViolations: p.perf.auditViolations.Load(),
	}
}

// cancelPollSteps is how many simulated cycles a faulty run advances
// between context polls in RunOne. Small enough that cancellation
// lands well inside one injection (a hung run is MaxCyclesPerRun
// cycles), large enough that the poll is free.
const cancelPollSteps = 512

// pollCancel is the shared cancellation poll of RunOne's fast-forward
// and window loops: every cancelPollSteps iterations it surfaces ctx's
// error so a run aborts mid-injection instead of running out the
// window. An uncancelled run is untouched — the poll is pure control
// flow.
func pollCancel(ctx context.Context, i uint64) error {
	if i%cancelPollSteps == 0 {
		return ctx.Err()
	}
	return nil
}

// emitActions reports one window step's detector actions, the counter
// deltas from was to now, as "singleton", "replay" and "rollback"
// instants at cycle, in the order a step takes them (commit-time checks
// before completion-time ones). Each instant is one counted action: a
// store whose address and value checks both trigger counts two, though
// the pipeline acts once. With first, the step holds the run's first
// action, which is also its "detect" instant (Arg = the action kind).
func emitActions(sink obs.Sink, cycle uint64, was, now detect.Stats, first bool) {
	for _, k := range [...]struct {
		act detect.Action
		n   uint64
	}{
		{detect.Singleton, now.Singletons - was.Singletons},
		{detect.Replay, now.Replays - was.Replays},
		{detect.Rollback, now.Rollbacks - was.Rollbacks},
	} {
		for i := uint64(0); i < k.n; i++ {
			obs.Instant(sink, k.act.String(), cycle, "")
			if first {
				first = false
				obs.Instant(sink, "detect", cycle, k.act.String())
			}
		}
	}
}

// ending is how a run's window stopped.
type ending uint8

const (
	// simulated: at the target commit, the hang watchdog or a halt.
	simulated ending = iota
	// reconverged: at a golden digest the machine matched.
	reconverged
	// deadlocked: at a provable deadlock (system.System.Quiescent).
	deadlocked
)

// RunOne executes one injection on w: it forks a faulty machine off
// the golden trace into w's arena (from the nearest checkpoint at or
// before the injection cycle), advances to the injection cycle, flips
// the bit in the victim core, runs the window, and classifies.
// Every Prepared field it reads is immutable and the fork is w's
// private state, so any number of goroutines may call RunOne on one
// Prepared concurrently, each with its own Worker.
//
// Three rules decide a run from the golden trace without simulating
// the rest of its window. A run prepare decided at its injection
// instant (decide) returns its stored Result without a fork. A run
// that provably rejoins the golden trajectory at a digest check exits
// early, Masked. A run that reaches a provable deadlock is classified
// Hung at once: its counters are final.
//
// Those rules rest on proofs, not on simulation, so a Worker with a
// nonzero Audit rate re-checks a seeded share of the runs they decide:
// an audited early exit or deadlock keeps stepping the same machine to
// the end of the window (or the watchdog, or a halt), and an audited
// decided run is forked and simulated in full. Each is classified the
// legacy way, by the same classify step, and the two Results must be
// identical field for field, DetectLatency included. A mismatch counts
// in Perf.AuditViolations and fails the run with an *AuditError that
// carries both.
//
// The run polls ctx every cancelPollSteps simulated cycles and aborts
// mid-injection with ctx.Err() instead of running out the window (or
// the hang watchdog) first; an uncancelled run's result does not depend
// on ctx, w, or w's history.
func (p *Prepared) RunOne(ctx context.Context, inj Injection, w *Worker) (Result, error) {
	cfg, sink := p.cfg, w.sink
	audit := w.Audit > 0 && auditDraw(inj) < w.Audit
	dec, decided := p.decisionFor(inj)
	if decided {
		if sink != nil {
			cyc := p.baseCycle + inj.CycleOffset
			obs.Instant(sink, "inject", cyc, inj.Structure.String())
			obs.Instant(sink, "decided", cyc, dec.rule.String())
		}
		if !audit {
			p.perf.decided.Add(1)
			p.perf.runs.Add(1)
			return dec.result(inj), nil
		}
		sink = nil // the audit simulates silently
	}

	// Fork from the nearest golden checkpoint at or before the
	// injection cycle: the fast-forward shrinks from O(CycleOffset) to
	// O(CycleOffset mod ckptEvery). The checkpoint is a deterministic
	// clone of the same trace the spread-start snapshot would have
	// stepped through, so the forked run is bit-identical.
	origin := p.golden
	forkOff := uint64(0)
	if n := p.ckptEvery; n != 0 {
		if j := inj.CycleOffset / n; j > 0 && len(p.ckpts) > 0 {
			if j > uint64(len(p.ckpts)) {
				j = uint64(len(p.ckpts))
			}
			origin = p.ckpts[j-1]
			forkOff = j * n
		}
	}
	f := origin.Snapshot(w.arena)
	for i, ff := uint64(0), inj.CycleOffset-forkOff; i < ff; i++ {
		if err := pollCancel(ctx, i); err != nil {
			return Result{}, err
		}
		f.Step()
	}
	applyInjection(f, inj, &w.sites)
	if sink != nil {
		obs.Instant(sink, "inject", f.Cycle(), inj.Structure.String())
		if forkOff != 0 {
			obs.Instant(sink, "fork", f.Cycle(), strconv.FormatUint(forkOff, 10))
		}
	}

	ds0, fd0 := f.DetectorStats(), f.FaultsDeclared()
	// The first window step that raises the detectors' action count is
	// the detection point: detectors count an action exactly when they
	// return one. With a sink, every step's counter deltas are its
	// action instants (emitActions); seen holds the counters last
	// compared. stepStats reads the counters after a step: nil on a
	// core without a detector, whose counters never move, and the
	// detector's own Stats on a one-core machine, so that per-step read
	// costs what it costs on a bare core.
	seen, firstAction := ds0, uint64(0)
	var stepStats func() detect.Stats
	if f.Cores() > 1 {
		stepStats = f.DetectorStats
	} else if d := f.Core(0).Detector(); d != nil {
		stepStats = d.Stats
	}

	clock := f.Core(0)
	injCount := clock.Committed(0)
	target := injCount + cfg.WindowInstr
	done := false
	var hash uint64
	// The hash must be captured inside the commit hook — at the exact
	// retirement boundary — to line up with the golden trace, which is
	// recorded the same way (later commits in the same cycle would skew
	// a post-cycle hash).
	clock.SetCommitHook(func(tid int, count uint64) {
		if tid == 0 && count == target {
			done = true
			hash = f.ArchHash()
		}
	})

	start := f.Cycle()
	// Reconvergence early-exit precondition: the golden trace retired
	// this run's target commit at er.cycle, and a run that rejoins the
	// golden trajectory finishes there — so require that a converged
	// run would also have completed under the legacy hang watchdog
	// (er.cycle-start is exactly the legacy loop's completion-cycle
	// test). Then matching a golden digest proves the rest of the
	// window replays the golden trace: the hash comparison at target
	// must come out equal (Masked), and the detectors add the golden
	// trace's increments from the digest to er.
	er, erOK := endRec{}, false
	if p.digestEvery != 0 {
		er, erOK = p.endRecs[target]
	}
	canEarly := erOK && er.cycle-start <= cfg.MaxCyclesPerRun
	// Failed reconvergence checks back off exponentially (capped): a
	// run whose divergence is sticky — a flipped stale field that
	// neither propagates nor gets overwritten — would otherwise pay a
	// full structural fold at every digest boundary for its whole
	// window. Backing off is sound because a reconverged clone is the
	// golden trajectory and keeps matching at every later boundary, so
	// a delayed check fires with the identical result.
	nextIdx, stride := uint64(0), uint64(1)
	// window steps the faulty machine until the window's target commit,
	// the hang watchdog or a halt. With accel it also stops at the first
	// golden digest the machine matches and at a provable deadlock, and
	// reports which, with the digest.
	window := func(accel bool) (ending, *digestRec, error) {
		for !done {
			cyc := f.Cycle()
			if cyc-start >= cfg.MaxCyclesPerRun || f.AllHalted() {
				break
			}
			if err := pollCancel(ctx, cyc-start); err != nil {
				return simulated, nil, err
			}
			if accel && canEarly && (cyc-p.baseCycle)%p.digestEvery == 0 {
				if idx := (cyc - p.baseCycle) / p.digestEvery; idx >= nextIdx && idx < uint64(len(p.digests)) {
					rec := &p.digests[idx]
					if f.MatchesDigest(rec.pd) {
						return reconverged, rec, nil
					}
					nextIdx = idx + stride
					if stride < 16 {
						stride <<= 1
					}
				}
			}
			if accel && f.Quiescent() {
				return deadlocked, nil, nil
			}
			f.Step()
			if stepStats != nil && (firstAction == 0 || sink != nil) {
				if ds := stepStats(); actions(ds) != actions(seen) {
					first := firstAction == 0
					if first {
						firstAction = f.Cycle()
					}
					if sink != nil {
						emitActions(sink, f.Cycle(), seen, ds, first)
					}
					seen = ds
				}
			}
		}
		return simulated, nil, nil
	}

	// The golden run's background detector activity over the run's
	// commit range, which the Result's counters exclude so they reflect
	// fault-attributable work.
	bg := p.backgroundOver(injCount, target)
	// classify builds the Result of the window stepped so far. A run
	// that reconverged at golden digest rec (non-nil) is Masked: the
	// rest of its trajectory is the golden trace's, whose hash at
	// target equals goldenHash[target] by construction, and which
	// neither excepts nor hangs in the window (Prepare errors out
	// otherwise). Its detectors, in golden's state, add golden's
	// increments from rec to er, field by field (mod 2^64), to what
	// they hold now; so do its faults declared. A deadlocked run's
	// counters are already final.
	classify := func(rec *digestRec) Result {
		ds, fd := f.DetectorStats(), f.FaultsDeclared()
		if rec != nil {
			ds, fd = er.det.Sub(rec.det).Add(ds), er.fd-rec.fd+fd
		}
		res := Result{Injection: inj, Detected: fd > fd0}
		res.setCounters(ds, ds0, bg)
		if res.Detected && firstAction != 0 {
			res.DetectLatency = firstAction - start
		}
		exc, _ := f.AnyExcepted()
		want, ok := p.hashes[target]
		switch {
		case rec != nil:
			res.Outcome = Masked
		case exc:
			res.Outcome = Noisy
		case !done:
			res.Outcome, res.Hung = Noisy, true
		case ok && hash == want:
			res.Outcome = Masked
		default:
			res.Outcome = SDC
		}
		return res
	}

	end, rec, err := window(p.digestEvery != 0 && !decided)
	if err != nil {
		return Result{}, err
	}
	if sink != nil {
		switch end {
		case reconverged:
			obs.Instant(sink, "early-exit", f.Cycle(), strconv.FormatUint(er.cycle-f.Cycle(), 10))
		case deadlocked:
			obs.Instant(sink, "deadlock", f.Cycle(), strconv.FormatUint(cfg.MaxCyclesPerRun-(f.Cycle()-start), 10))
		}
	}
	res := classify(rec)
	// The audit: an audited early exit or deadlock keeps stepping the
	// same machine to the end of the window with every rule off, and an
	// audited decided run has just simulated its whole window; each
	// classifies it the legacy way and must arrive at the decided
	// Result.
	if decided || (end != simulated && audit) {
		full := res
		if decided {
			res = dec.result(inj)
		} else {
			if _, _, err := window(false); err != nil {
				return Result{}, err
			}
			full = classify(nil)
		}
		p.perf.audits.Add(1)
		if full != res {
			p.perf.auditViolations.Add(1)
			return Result{}, &AuditError{Early: res, Full: full}
		}
	}

	switch {
	case decided:
		p.perf.decided.Add(1)
	case end == reconverged:
		p.perf.earlyExits.Add(1)
	case end == deadlocked:
		p.perf.deadlocks.Add(1)
	}
	if !decided {
		p.perf.forkCyclesSaved.Add(forkOff)
		p.perf.offsetCycles.Add(inj.CycleOffset)
	}
	// Runs last: a Perf that counts this run counts all of its
	// counters, so one read once Runs covers every descriptor is final.
	p.perf.runs.Add(1)
	return res, nil
}

// auditDraw maps a descriptor to a point in [0, 1) by a hash of its
// SiteSeed. A Worker audits a decided run when the point falls below
// its rate, so the same runs are audited at any worker count and
// across resume.
func auditDraw(inj Injection) float64 {
	x := inj.SiteSeed ^ 0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// AuditError is an audit violation: the Result of an audited run
// decided without simulating its whole window (an early exit, a run
// decided at its injection instant or a deadlock) differs from the
// Result of the same run simulated to the end of its window.
type AuditError struct {
	Early, Full Result
}

func (e *AuditError) Error() string {
	return fmt.Sprintf("fault: audit violation on injection %+v: the decision gave %+v, the full window %+v",
		e.Early.Injection, e.Early, e.Full)
}

// noopInjections suppresses the actual flip (tandem-determinism test
// hook).
var noopInjections = false

// siteScratch holds drawSite's candidate lists between draws, so a
// Worker's runs (and a preparation's decisions) that draw among
// in-flight registers or LSQ entries stop allocating once the lists
// have grown.
type siteScratch struct {
	regs []uint16
	lsq  []pipeline.LSQSite
}

// site is one drawn injection site: the victim core and, in it, the
// rename-table entry, LSQ field or physical register the flip lands in.
type site struct {
	core int
	// at is where the flip lands: RegFile for an LSQ descriptor that
	// found no live LSQ entry.
	at    Structure
	reg   isa.Reg          // RenameTable: thread 0's entry of reg
	lsq   pipeline.LSQSite // LSQ
	field pipeline.LSQField
	phys  uint16 // RegFile
}

// applyInjection flips the descriptor's bit at its site in s.
func applyInjection(s *system.System, inj Injection, sc *siteScratch) {
	if noopInjections {
		return
	}
	drawSite(s, inj, sc).flip(s, inj.Bit)
}

// drawSite draws the descriptor's site in the live structures of s,
// reading them only, so prepare draws on the golden trace exactly the
// site RunOne flips in the fork. A multicore machine's victim core is
// drawn from the SiteSeed by an RNG of its own, so the site draw below
// is the same on every machine; a one-core machine's victim is its
// core. When the preferred structure has no live site (an empty LSQ),
// the fault falls back to the register file, keeping the campaign size
// fixed. The candidate lists are built in sc's storage.
func drawSite(s *system.System, inj Injection, sc *siteScratch) site {
	var st site
	if n := s.Cores(); n > 1 {
		st.core = stats.NewRNG(inj.SiteSeed ^ 0xc0e).Intn(n)
	}
	c := s.Core(st.core)
	rng := stats.NewRNG(inj.SiteSeed)
	switch inj.Structure {
	case RenameTable:
		// Architectural registers r1..r47 (never the zero register).
		st.at, st.reg = RenameTable, isa.Reg(1+rng.Intn(isa.NumArchRegs-1))
		return st
	case LSQ:
		sc.lsq = c.LSQSites(sc.lsq)
		if n := len(sc.lsq); n > 0 {
			st.at, st.lsq, st.field = LSQ, sc.lsq[rng.Intn(n)], pipeline.LSQAddr
			if st.lsq.IsStore && rng.Bool(0.5) {
				st.field = pipeline.LSQData
			}
			return st
		}
		// fall through to the register file
	}
	// The register-file population is the whole physical file but the
	// zero register (the paper's Section-4 model): flips in free
	// registers are overwritten at the next allocation and classify as
	// masked. The InFlight share emulates back-end datapath faults by
	// targeting live in-flight destination values instead.
	st.at = RegFile
	if inj.InFlight {
		sc.regs = c.InFlightDestRegs(sc.regs)
		if n := len(sc.regs); n > 0 {
			st.phys = sc.regs[rng.Intn(n)]
			return st
		}
	}
	st.phys = uint16(1 + rng.Intn(c.PhysRegs()-1))
	return st
}

// flip flips bit at the site.
func (st site) flip(s *system.System, bit uint) {
	c := s.Core(st.core)
	switch st.at {
	case RenameTable:
		c.FlipRATBit(0, st.reg, bit)
	case LSQ:
		c.FlipLSQBit(st.lsq, st.field, bit)
	default:
		c.FlipRegisterBit(st.phys, bit)
	}
}

// unread returns the rule by which a flip at the site in s's current
// state can never be read, or undecided. LSQ entries are never decided
// here: the commit check reads them.
func (st site) unread(s *system.System) rule {
	c := s.Core(st.core)
	switch {
	case st.at == RenameTable && !c.NamesReg(0, st.reg):
		return unnamed
	case st.at != RegFile:
		return undecided
	case c.RegUnwritten(st.phys):
		return unwritten
	case c.RegDead(st.phys):
		return dead
	}
	return undecided
}

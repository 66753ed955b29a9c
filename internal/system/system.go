// Package system assembles multiple cores into the paper's Table-2
// machine: 8 cores, each 2-way SMT, sharing one memory image. The
// multithreaded benchmarks (SPLASH-2 and the commercial workloads) run
// one software thread per SMT context across all cores; detectors are
// per-core, as FaultHound's hardware is.
//
// Caches are private and timing-only (architectural data lives in the
// shared memory), so cross-core sharing is architecturally coherent by
// construction; the timing model omits coherence misses, which none of
// the paper's mechanisms interact with.
//
// A System is also the fault runner's machine (internal/fault): a
// single-core campaign cell runs as a one-core System (Of), and
// Snapshot, Clone and the digest methods serve every core count alike.
package system

import (
	"fmt"

	"faulthound/internal/detect"
	"faulthound/internal/mem"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
)

// Config describes the machine.
type Config struct {
	// Cores is the core count (Table 2 uses 8).
	Cores int
	// Core is the per-core configuration (Threads sets the SMT width).
	Core pipeline.Config
}

// System is a running multicore machine.
type System struct {
	cfg    Config
	cores  []*pipeline.Core
	memory *mem.Memory
}

// New builds a system running the given programs, one per hardware
// thread (len(programs) must equal Cores x Core.Threads). All programs
// share one memory image spanning the union of their data segments;
// give threads disjoint segments unless they intentionally share.
// mkDetector builds one detector per core (nil for no detection).
func New(cfg Config, programs []*prog.Program, mkDetector func(core int) detect.Detector) (*System, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("system: need at least one core")
	}
	want := cfg.Cores * cfg.Core.Threads
	if len(programs) != want {
		return nil, fmt.Errorf("system: %d programs for %d hardware threads", len(programs), want)
	}

	base, end := programs[0].DataBase, programs[0].DataBase+programs[0].DataSize
	image := make(map[uint64]uint64)
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
	shared := mem.NewMemory(base, end-base, image)

	s := &System{cfg: cfg, memory: shared}
	for i := 0; i < cfg.Cores; i++ {
		var det detect.Detector
		if mkDetector != nil {
			det = mkDetector(i)
		}
		slice := programs[i*cfg.Core.Threads : (i+1)*cfg.Core.Threads]
		c, err := pipeline.NewShared(cfg.Core, slice, det, shared)
		if err != nil {
			return nil, fmt.Errorf("system: core %d: %w", i, err)
		}
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// Of wraps one core as a one-core machine over the core's own memory:
// the fault runner's machine for a single-core cell.
func Of(c *pipeline.Core) *System {
	return &System{cfg: Config{Cores: 1, Core: c.Config()}, cores: []*pipeline.Core{c}, memory: c.Memory()}
}

// Cores returns the core count.
func (s *System) Cores() int { return len(s.cores) }

// Core returns core i.
func (s *System) Core(i int) *pipeline.Core { return s.cores[i] }

// Memory returns the shared memory image.
func (s *System) Memory() *mem.Memory { return s.memory }

// Step advances every core by one cycle (cores are cycle-synchronous).
func (s *System) Step() {
	for _, c := range s.cores {
		c.Step()
	}
}

// Run steps the system until every hardware thread halts or maxCycles
// elapse; it returns the cycles executed. A one-core machine runs its
// core's own loop, which the fault runner's warm-up spends most of a
// single-core preparation in.
func (s *System) Run(maxCycles uint64) uint64 {
	if len(s.cores) == 1 {
		return s.cores[0].Run(maxCycles)
	}
	var n uint64
	for n < maxCycles && !s.AllHalted() {
		s.Step()
		n++
	}
	return n
}

// Quiescent reports whether the machine is deadlocked: every core is
// quiescent (pipeline.Core.Quiescent), so no core acts again. Cores
// share only memory, which a quiescent core neither reads nor writes,
// so one that keeps acting rules the machine out.
func (s *System) Quiescent() bool {
	for _, c := range s.cores {
		if !c.Quiescent() {
			return false
		}
	}
	return true
}

// AllHalted reports whether every hardware thread has halted.
func (s *System) AllHalted() bool {
	for _, c := range s.cores {
		if !c.AllHalted() {
			return false
		}
	}
	return true
}

// CommittedTotal sums committed instructions across all cores.
func (s *System) CommittedTotal() uint64 {
	var n uint64
	for _, c := range s.cores {
		n += c.CommittedTotal()
	}
	return n
}

// Stats aggregates the per-core pipeline counters.
func (s *System) Stats() pipeline.Stats {
	var agg pipeline.Stats
	for _, c := range s.cores {
		st := c.Stats()
		agg.Cycles = st.Cycles // synchronous: same on every core
		agg.Fetched += st.Fetched
		agg.Dispatched += st.Dispatched
		agg.Issued += st.Issued
		agg.Completed += st.Completed
		agg.Committed += st.Committed
		agg.Loads += st.Loads
		agg.Stores += st.Stores
		agg.Branches += st.Branches
		agg.BranchMispredicts += st.BranchMispredicts
		agg.Exceptions += st.Exceptions
		agg.ReplayTriggers += st.ReplayTriggers
		agg.ReplayedUops += st.ReplayedUops
		agg.Rollbacks += st.Rollbacks
		agg.RollbackSquashedUops += st.RollbackSquashedUops
		agg.Singletons += st.Singletons
		agg.FaultsDeclared += st.FaultsDeclared
		agg.ShadowOps += st.ShadowOps
		agg.RegReads += st.RegReads
		agg.RegWrites += st.RegWrites
		for i := range st.IssuedByClass {
			agg.IssuedByClass[i] += st.IssuedByClass[i]
		}
	}
	return agg
}

// Clone returns an independent deep copy of the whole machine: the
// shared memory is copied once (mem.Memory.CloneLayer, so a system over
// an overlay copies only the overlay's dirty words) and every core's
// copy references that one copy. The fault runner's golden checkpoints
// are Clones of its trace.
func (s *System) Clone() *System {
	d := &System{cfg: s.cfg, memory: s.memory.CloneLayer()}
	for _, c := range s.cores {
		d.cores = append(d.cores, c.CloneWith(d.memory, nil))
	}
	return d
}

// SnapshotArena owns the reusable storage for repeated snapshots of
// one golden machine: the destination system, its memory overlay and
// one pipeline.SnapshotArena per core, grown when a larger machine
// first snapshots into it. It must not be shared across goroutines.
type SnapshotArena struct {
	dst   System
	cores []*pipeline.SnapshotArena
}

// NewSnapshotArena returns an empty arena; storage is grown on first
// use and reused afterwards.
func NewSnapshotArena() *SnapshotArena { return &SnapshotArena{} }

// Snapshot returns a copy of s built inside the arena. The shared
// memory is overlaid once (mem.Memory.OverlayInto, reusing the arena's
// previous overlay), and every core is copied into its own
// pipeline.SnapshotArena over that one overlay, so the copies share
// memory exactly as s's cores do. s must stay immutable while the
// snapshot is in use; the snapshot is valid until the next Snapshot on
// the same arena.
func (s *System) Snapshot(a *SnapshotArena) *System {
	d := &a.dst
	d.cfg = s.cfg
	d.memory = s.memory.OverlayInto(d.memory)
	for len(a.cores) < len(s.cores) {
		a.cores = append(a.cores, pipeline.NewSnapshotArena())
	}
	d.cores = d.cores[:0]
	for i, c := range s.cores {
		d.cores = append(d.cores, c.CloneWith(d.memory, a.cores[i]))
	}
	return d
}

// SetCloneBaseline registers base's cores as the frozen delta-clone
// anchors of s's, core by core (pipeline.Core.SetCloneBaseline). Both
// machines must have the same shape and be frozen fork origins.
func (s *System) SetCloneBaseline(base *System) {
	for i, c := range s.cores {
		c.SetCloneBaseline(base.cores[i])
	}
}

// Digest is a machine's reconvergence fingerprint: one
// pipeline.StateDigest per core. Each carries the shared memory's hash.
type Digest []pipeline.StateDigest

// CaptureDigest records every core's digest at the current cycle.
func (s *System) CaptureDigest() Digest {
	d := make(Digest, len(s.cores))
	for i, c := range s.cores {
		d[i] = c.CaptureDigest()
	}
	return d
}

// MatchesDigest reports whether every core provably matches its digest
// in d (pipeline.Core.MatchesDigest). It allocates nothing.
func (s *System) MatchesDigest(d Digest) bool {
	for i, c := range s.cores {
		if !c.MatchesDigest(&d[i]) {
			return false
		}
	}
	return true
}

// Cycle returns the machine's cycle (cores are cycle-synchronous).
func (s *System) Cycle() uint64 { return s.cores[0].Cycle() }

// DetectorStats sums the cores' detector counters; a one-core machine
// returns its core's without summing.
func (s *System) DetectorStats() detect.Stats {
	st := s.cores[0].DetectorStats()
	for _, c := range s.cores[1:] {
		st = st.Add(c.DetectorStats())
	}
	return st
}

// FaultsDeclared sums the faults the cores' detectors declared.
func (s *System) FaultsDeclared() uint64 {
	var n uint64
	for _, c := range s.cores {
		n += c.Stats().FaultsDeclared
	}
	return n
}

// ArchHash folds the shared memory and every hardware thread's live
// architectural registers into one fingerprint for tandem comparison.
func (s *System) ArchHash() uint64 {
	h := s.memory.Hash()
	for ci, c := range s.cores {
		for tid := 0; tid < s.cfg.Core.Threads; tid++ {
			regs := c.LiveArchRegs(tid)
			for i, v := range regs {
				x := (uint64(ci*64+tid*48+i) + 1) * 0x9e3779b97f4a7c15
				x ^= v + 0x2545f4914f6cdd1d
				x ^= x >> 33
				x *= 0xff51afd7ed558ccd
				x ^= x >> 33
				h ^= x
			}
		}
	}
	return h
}

// WarmDetectors fast-forwards every core's detector over its thread-0
// program (see pipeline.Core.WarmDetector).
func (s *System) WarmDetectors(n uint64) {
	for _, c := range s.cores {
		c.WarmDetector(n)
	}
}

// AnyExcepted reports whether any hardware thread took an exception,
// and one of the messages.
func (s *System) AnyExcepted() (bool, string) {
	for _, c := range s.cores {
		for tid := 0; tid < s.cfg.Core.Threads; tid++ {
			if exc, msg := c.Excepted(tid); exc {
				return true, msg
			}
		}
	}
	return false, ""
}

package system

import (
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/detect"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/workload"
)

func TestSystemRunsIndependentPrograms(t *testing.T) {
	// 2 cores x 2 SMT threads, each running its own copy of a kernel
	// with disjoint segments (the paper's SPEC setup, scaled down).
	cfg := Config{Cores: 2, Core: pipeline.DefaultConfig(2)}
	bm, err := workload.Get("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	programs := workload.Programs(bm, 4, 1)
	s, err := New(cfg, programs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s.Core(0).Committed(0) < 5000 && s.Cycle() < 2_000_000 {
		s.Step()
	}
	if s.Core(0).Committed(0) < 5000 {
		t.Fatalf("core 0 committed only %d", s.Core(0).Committed(0))
	}
	// Every hardware thread makes progress.
	for i := 0; i < 2; i++ {
		if s.Core(i).CommittedTotal() == 0 {
			t.Fatalf("core %d made no progress", i)
		}
	}
	agg := s.Stats()
	if agg.Committed != s.CommittedTotal() {
		t.Fatal("aggregate commit count mismatch")
	}
}

func TestSystemRejectsBadShape(t *testing.T) {
	bm, _ := workload.Get("bzip2")
	programs := workload.Programs(bm, 2, 1)
	if _, err := New(Config{Cores: 2, Core: pipeline.DefaultConfig(2)}, programs, nil); err == nil {
		t.Fatal("expected error for wrong program count")
	}
	if _, err := New(Config{Cores: 0}, nil, nil); err == nil {
		t.Fatal("expected error for zero cores")
	}
}

// TestOceanMPBarrierCorrectness is the shared-memory acceptance test:
// four threads on two cores relax a shared grid with AMOADD barriers;
// all threads must advance through many barrier generations together.
func TestOceanMPBarrierCorrectness(t *testing.T) {
	const nthreads = 4
	programs := workload.OceanMP(prog.DefaultDataBase, 1, nthreads)
	cfg := Config{Cores: 2, Core: pipeline.DefaultConfig(2)}
	s, err := New(cfg, programs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(400_000)
	// The generation word counts completed barrier rounds.
	gen, err := s.Memory().Read(prog.DefaultDataBase + 16)
	if err != nil {
		t.Fatal(err)
	}
	if gen < 3 {
		t.Fatalf("only %d barrier generations completed; barrier broken?", gen)
	}
	// The arrival counter must be consistent: between 0 and nthreads.
	arrivals, _ := s.Memory().Read(prog.DefaultDataBase + 8)
	if arrivals > nthreads {
		t.Fatalf("arrival counter %d exceeds thread count: atomicity broken", arrivals)
	}
	for i := 0; i < 2; i++ {
		if exc, msg := s.Core(i).Excepted(0); exc {
			t.Fatalf("core %d excepted: %s", i, msg)
		}
	}
}

// TestOceanMPDeterministic: the multicore run is bit-deterministic.
func TestOceanMPDeterministic(t *testing.T) {
	run := func() uint64 {
		programs := workload.OceanMP(prog.DefaultDataBase, 7, 4)
		s, err := New(Config{Cores: 2, Core: pipeline.DefaultConfig(2)}, programs, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(150_000)
		return s.Memory().Hash() ^ s.CommittedTotal()
	}
	if run() != run() {
		t.Fatal("multicore run is not deterministic")
	}
}

// TestSystemWithDetectors attaches FaultHound per core (as the paper's
// hardware would be) and checks transparency of the parallel run.
func TestSystemWithDetectors(t *testing.T) {
	const nthreads = 4
	mk := func(withDet bool) (uint64, uint64) {
		programs := workload.OceanMP(prog.DefaultDataBase, 3, nthreads)
		var mkDet func(int) detect.Detector
		if withDet {
			mkDet = func(int) detect.Detector { return core.New(core.DefaultConfig()) }
		}
		s, err := New(Config{Cores: 2, Core: pipeline.DefaultConfig(2)}, programs, mkDet)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(200_000)
		gen, _ := s.Memory().Read(prog.DefaultDataBase + 16)
		return gen, s.CommittedTotal()
	}
	genBase, _ := mk(false)
	genDet, _ := mk(true)
	if genDet == 0 {
		t.Fatal("no barrier progress under FaultHound")
	}
	// FaultHound may slow the run (fewer generations) but must not
	// break the barrier protocol.
	if genDet > genBase {
		t.Logf("note: detector run advanced further (%d vs %d)", genDet, genBase)
	}
}

func TestSystemCloneIdenticalFuture(t *testing.T) {
	programs := workload.OceanMP(prog.DefaultDataBase, 5, 4)
	s, err := New(Config{Cores: 2, Core: pipeline.DefaultConfig(2)}, programs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20_000)
	c := s.Clone()
	for i := 0; i < 30_000; i++ {
		s.Step()
		c.Step()
	}
	if s.ArchHash() != c.ArchHash() {
		t.Fatal("system clone diverged from original under identical stepping")
	}
	// And independence: running the clone further must not affect the
	// original.
	h := s.ArchHash()
	c.Run(10_000)
	if s.ArchHash() != h {
		t.Fatal("running the clone mutated the original")
	}
}

// TestSystemSnapshotIdenticalFuture: a snapshot's cores share one
// overlay of the machine's memory, as the machine's own cores share
// its memory, so a snapshot and a clone of the same machine step
// through identical futures (AMOADD barriers included, which only a
// shared memory keeps in step), and every core's digest of one matches
// the other. Stepping the snapshot leaves the machine it came from
// untouched.
func TestSystemSnapshotIdenticalFuture(t *testing.T) {
	programs := workload.OceanMP(prog.DefaultDataBase, 5, 4)
	s, err := New(Config{Cores: 2, Core: pipeline.DefaultConfig(2)}, programs, func(int) detect.Detector {
		return core.New(core.DefaultConfig())
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20_000)
	h := s.ArchHash()
	arena := NewSnapshotArena()
	for round := 0; round < 2; round++ {
		c, snap := s.Clone(), s.Snapshot(arena)
		for i := 0; i < 30_000; i++ {
			c.Step()
			snap.Step()
		}
		if c.ArchHash() == h {
			t.Fatalf("round %d: 30,000 cycles left the machine's state unchanged: the check is vacuous", round)
		}
		if snap.ArchHash() != c.ArchHash() || !snap.MatchesDigest(c.CaptureDigest()) {
			t.Fatalf("round %d: the snapshot diverged from a clone under identical stepping", round)
		}
		if snap.DetectorStats() != c.DetectorStats() || snap.FaultsDeclared() != c.FaultsDeclared() {
			t.Fatalf("round %d: the snapshot's detector counters differ from the clone's", round)
		}
	}
	if s.ArchHash() != h {
		t.Fatal("stepping a snapshot mutated the machine it came from")
	}
}

// TestSystemDigestCoversEveryCore: a machine matches its own digest,
// and a flip in an in-flight register of the last core, which no
// memory word has seen yet, breaks the match.
func TestSystemDigestCoversEveryCore(t *testing.T) {
	programs := workload.OceanMP(prog.DefaultDataBase, 5, 4)
	s, err := New(Config{Cores: 2, Core: pipeline.DefaultConfig(2)}, programs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20_000)
	d := s.CaptureDigest()
	f := s.Snapshot(NewSnapshotArena())
	if !f.MatchesDigest(d) {
		t.Fatal("a snapshot does not match its origin's digest")
	}
	last := f.Core(f.Cores() - 1)
	regs := last.InFlightDestRegs(nil)
	if len(regs) == 0 {
		t.Fatal("the last core holds no in-flight register: the check is vacuous")
	}
	last.FlipRegisterBit(regs[0], 5)
	if f.MatchesDigest(d) {
		t.Fatal("a flipped register of the last core still matches the digest")
	}
}

package pipeline

import (
	"testing"
	"unsafe"

	"faulthound/internal/isa"
	"faulthound/internal/prog"
)

// midRunCore builds a memLoop core stepped into a busy mid-run state
// (full ROB, in-flight loads/stores, live delay buffer) so snapshots
// must copy every container faithfully.
func midRunCore(t *testing.T) *Core {
	t.Helper()
	p := buildMemLoop(64)
	core, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		core.Step()
	}
	return core
}

// A snapshot built in an arena must behave exactly like a deep clone:
// same cycles, commits, and architectural hash over a long future — and
// running it must not touch the golden core (its memory is a CoW
// overlay over the golden image).
func TestSnapshotMatchesCloneFuture(t *testing.T) {
	golden := midRunCore(t)
	goldenHash := golden.ArchHash(0)

	deep := golden.Clone()
	arena := NewSnapshotArena()
	snap := golden.Snapshot(arena)

	for i := 0; i < 2000; i++ {
		deep.Step()
		snap.Step()
		if deep.ArchHash(0) != snap.ArchHash(0) {
			t.Fatalf("cycle %d: snapshot diverged from deep clone", i)
		}
	}
	if deep.Cycle() != snap.Cycle() || deep.Committed(0) != snap.Committed(0) {
		t.Fatalf("cycles %d/%d commits %d/%d", deep.Cycle(), snap.Cycle(), deep.Committed(0), snap.Committed(0))
	}
	if deep.Stats() != snap.Stats() {
		t.Fatalf("stats diverged:\n deep %+v\n snap %+v", deep.Stats(), snap.Stats())
	}
	if golden.ArchHash(0) != goldenHash {
		t.Fatal("running the snapshot mutated the golden core")
	}
}

// Reusing one arena for many snapshots must give each run a fresh,
// faithful copy regardless of what the previous run did to the shared
// storage.
func TestSnapshotArenaReuse(t *testing.T) {
	golden := midRunCore(t)
	goldenHash := golden.ArchHash(0)
	arena := NewSnapshotArena()

	for round := 0; round < 5; round++ {
		deep := golden.Clone()
		snap := golden.Snapshot(arena)
		// Run each round a different distance so the arena's buffers are
		// left in varied states (advanced slice headers, grown queues,
		// run-allocated uops) before the next snapshot.
		steps := 400 * (round + 1)
		for i := 0; i < steps; i++ {
			deep.Step()
			snap.Step()
		}
		if deep.ArchHash(0) != snap.ArchHash(0) || deep.Stats() != snap.Stats() {
			t.Fatalf("round %d: arena snapshot diverged from deep clone", round)
		}
		if golden.ArchHash(0) != goldenHash {
			t.Fatalf("round %d: snapshot run mutated the golden core", round)
		}
	}
}

// A snapshot that runs to completion must produce the same final
// architectural state as the golden program would (the memLoop result),
// proving overlay reads fall through to the golden image correctly.
func TestSnapshotRunsToCompletion(t *testing.T) {
	golden := midRunCore(t)
	ref := golden.Clone()
	ref.Run(1_000_000)
	if !ref.Halted(0) {
		t.Fatal("reference clone did not halt")
	}

	snap := golden.Snapshot(NewSnapshotArena())
	snap.Run(1_000_000)
	if !snap.Halted(0) {
		t.Fatal("snapshot did not halt")
	}
	if ref.ArchHash(0) != snap.ArchHash(0) {
		t.Fatal("snapshot finished with different architectural state")
	}
}

// TestChunkPoolsCoverLiveUops: a core recycles its uop and RAT
// checkpoint chunks by age, so after every cycle each live uop, and
// each live uop's checkpoint, must sit in a chunk its pool still counts
// as handed out, with a recorded largest seq no smaller than the uop's.
// Two threads interleave their dispatches, so a pool that recorded a
// checkpoint chunk's last carve instead of its largest would recycle a
// chunk under a younger thread's live checkpoint; this catches that.
func TestChunkPoolsCoverLiveUops(t *testing.T) {
	for seed := int32(1); seed <= 3; seed++ {
		c, err := New(DefaultConfig(2), []*prog.Program{buildCoinLoop(seed, 3000), buildCoinLoop(seed+7, 2000)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 200_000 && !c.AllHalted(); cycle++ {
			c.Step()
			for _, th := range c.threads {
				for _, q := range [][]*uop{th.rob, th.fetchQ} {
					for _, u := range q {
						if !pooled(c.uops.live, unsafe.Pointer(u), u.seq) {
							t.Fatalf("seed %d cycle %d: live uop %d outside the live uop chunks", seed, cycle, u.seq)
						}
						if u.ratCkpt != nil && !pooled(c.ckpts.live, unsafe.Pointer(&u.ratCkpt[0]), u.seq) {
							t.Fatalf("seed %d cycle %d: uop %d's checkpoint outside the live checkpoint chunks", seed, cycle, u.seq)
						}
					}
				}
			}
		}
		if !c.AllHalted() {
			t.Fatalf("seed %d: did not halt", seed)
		}
	}
}

// buildCoinLoop runs iters iterations of a loop that flips a
// pseudo-random coin each time and, on heads, increments a
// pseudo-randomly chosen word: a branch the predictor cannot learn, so
// squashes keep interleaving with commits.
func buildCoinLoop(seed, iters int32) *prog.Program {
	b := prog.NewBuilder("coinloop", 4096)
	b.MovU64(2, b.DataBase())
	b.MovI(3, 0)
	b.MovI(4, iters)
	b.MovI(5, seed)
	b.MovI(9, 1103515245)
	b.Label("loop")
	b.Op3(isa.MUL, 5, 5, 9)
	b.OpI(isa.ADDI, 5, 5, 12345)
	b.OpI(isa.SRLI, 6, 5, 16)
	b.OpI(isa.ANDI, 6, 6, 1)
	b.Br(isa.BEQ, 6, isa.RZero, "tails")
	b.OpI(isa.ANDI, 7, 5, 0x1f8)
	b.Op3(isa.ADD, 8, 2, 7)
	b.Ld(10, 8, 0)
	b.OpI(isa.ADDI, 10, 10, 1)
	b.St(8, 0, 10)
	b.Label("tails")
	b.OpI(isa.ADDI, 3, 3, 1)
	b.Br(isa.BLT, 3, 4, "loop")
	b.Halt()
	return b.MustBuild()
}

// pooled reports whether p lies in one of live's chunks and that
// chunk's largest carving seq covers seq.
func pooled[T any](live []poolChunk[T], p unsafe.Pointer, seq uint64) bool {
	for _, ch := range live {
		lo := uintptr(unsafe.Pointer(&ch.buf[0]))
		hi := lo + uintptr(len(ch.buf))*unsafe.Sizeof(ch.buf[0])
		if a := uintptr(p); a >= lo && a < hi {
			return seq <= ch.maxSeq
		}
	}
	return false
}

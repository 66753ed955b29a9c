package pipeline

import (
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/isa"
	"faulthound/internal/prog"
)

// Simulator-throughput benchmarks: how fast the model itself runs.
// These guard against performance regressions in the simulation loop
// (the experiment harness executes hundreds of millions of cycles).

func BenchmarkSimCyclesPerSecond(b *testing.B) {
	p := buildMemLoop(64)
	c, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
		if c.AllHalted() {
			b.StopTimer()
			c, _ = New(DefaultConfig(1), []*prog.Program{p}, nil)
			b.StartTimer()
		}
	}
}

func BenchmarkSimSMT2(b *testing.B) {
	p := buildMemLoop(64)
	c, err := New(DefaultConfig(2), []*prog.Program{p, p}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
		if c.AllHalted() {
			b.StopTimer()
			c, _ = New(DefaultConfig(2), []*prog.Program{p, p}, nil)
			b.StartTimer()
		}
	}
}

func BenchmarkClone(b *testing.B) {
	p := buildMemLoop(64)
	c, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		b.Fatal(err)
	}
	c.RunUntilCommits(0, 2000, 1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Clone()
	}
}

// BenchmarkSnapshot is BenchmarkClone on the arena path: after the
// first iteration every snapshot rebuilds the previous one's storage in
// place over a CoW memory overlay.
func BenchmarkSnapshot(b *testing.B) {
	p := buildMemLoop(64)
	c, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		b.Fatal(err)
	}
	c.RunUntilCommits(0, 2000, 1_000_000)
	arena := NewSnapshotArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Snapshot(arena)
	}
}

func BenchmarkArchHash(b *testing.B) {
	p := buildMemLoop(64)
	c, err := New(DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		b.Fatal(err)
	}
	c.RunUntilCommits(0, 2000, 1_000_000)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= c.ArchHash(0)
	}
	_ = sink
}

// BenchmarkWarmDetector times one detector warm-up of a FaultHound core
// (1M instructions) over an endless array walk. interpret gives every
// warm-up a fresh program, so each interprets it; replay warms one
// program twice first, so its load/store stream is recorded and every
// timed warm-up replays it (prog.Program.VisitMemOps).
func BenchmarkWarmDetector(b *testing.B) {
	const n = 1_000_000
	walk := func() *prog.Program {
		const words = 4096
		pb := prog.NewBuilder("walk", words*8)
		for i := uint64(0); i < words; i++ {
			pb.Word(i*8, i*i)
		}
		pb.MovU64(2, pb.DataBase())
		pb.MovI(4, words)
		pb.Label("outer")
		pb.MovI(3, 0)
		pb.Label("loop")
		pb.OpI(isa.SLLI, 5, 3, 3)
		pb.Op3(isa.ADD, 5, 2, 5)
		pb.Ld(7, 5, 0)
		pb.OpI(isa.ADDI, 7, 7, 1)
		pb.St(5, 0, 7)
		pb.OpI(isa.ADDI, 3, 3, 1)
		pb.Br(isa.BLT, 3, 4, "loop")
		pb.Jmp("outer")
		return pb.MustBuild()
	}
	warm := func(b *testing.B, p *prog.Program) {
		b.StopTimer()
		if p == nil {
			p = walk()
		}
		c, err := New(DefaultConfig(1), []*prog.Program{p}, core.New(core.DefaultConfig()))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		c.WarmDetector(n)
	}
	b.Run("interpret", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			warm(b, nil)
		}
	})
	b.Run("replay", func(b *testing.B) {
		p := walk()
		warm(b, p)
		warm(b, p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			warm(b, p)
		}
	})
}

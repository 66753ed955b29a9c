package workload

import (
	"faulthound/internal/isa"
	"faulthound/internal/prog"
	"faulthound/internal/stats"
)

// Micro-workloads are controlled access-pattern kernels, separate from
// the Table-1 suite, for studying the detectors in isolation: each one
// produces a single, pure value-locality pattern. The ablation benches
// and examples use them where a mixed benchmark would confound the
// effect under study.

// MicroStream returns a unit-stride streaming kernel: sequential load
// addresses (only carry bits toggle), store values equal to a slowly
// incrementing counter — the friendliest possible stream for bit-mask
// filters.
func MicroStream(base, seed uint64) *prog.Program {
	const words = 1024
	b := prog.NewBuilderAt("micro-stream", base, 16<<10)
	rng := stats.NewRNG(seed ^ 0x51)
	for i := uint64(0); i < words; i++ {
		b.Word(i*8, rng.Uint64()&0xff)
	}
	b.MovU64(2, base)
	b.MovI(1, 0)
	b.MovI(3, words)
	b.MovI(5, 0)
	b.Label("loop")
	b.OpI(isa.SLLI, 7, 1, 3)
	b.Op3(isa.ADD, 8, 2, 7)
	b.Ld(4, 8, 0)
	b.Op3(isa.ADD, 5, 5, 4)
	b.OpI(isa.ANDI, 5, 5, 0xff)
	b.St(8, 0, 5)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 3, "loop")
	b.MovI(1, 0)
	b.Jmp("loop")
	return b.MustBuild()
}

// MicroChase returns a pure pointer-chasing kernel over a randomized
// cycle: maximally irregular load addresses, no stores except a
// heartbeat — the hardest stream for address filters.
func MicroChase(base, seed uint64) *prog.Program {
	const nodes = 4096
	b := prog.NewBuilderAt("micro-chase", base, 64<<10)
	permutationCycle(b, 0, nodes, seed^0xc4a)
	b.MovU64(2, base)
	b.Op3(isa.ADD, 1, 2, 0)
	b.MovI(9, 0)
	b.Label("loop")
	b.Ld(1, 1, 0)
	b.OpI(isa.ADDI, 9, 9, 1)
	b.OpI(isa.ANDI, 7, 9, 255)
	b.Br(isa.BNE, 7, 0, "loop")
	b.St(2, nodes*8, 9)
	b.Jmp("loop")
	return b.MustBuild()
}

// MicroToggle returns the delinquent-bit torture kernel: a value whose
// low bit toggles with stable runs between toggles, re-arming and
// re-triggering a biased filter forever — the pattern the second-level
// filter exists to suppress (Section 3.2).
func MicroToggle(base, seed uint64) *prog.Program {
	b := prog.NewBuilderAt("micro-toggle", base, 4096)
	b.MovU64(2, base)
	b.MovI(1, 0) // phase counter
	b.MovI(5, 0) // toggling value
	b.Label("loop")
	// Every 4th iteration, flip bit 0 of the stored value.
	b.OpI(isa.ANDI, 7, 1, 3)
	b.Br(isa.BNE, 7, 0, "store")
	b.OpI(isa.XORI, 5, 5, 1)
	b.Label("store")
	b.St(2, 0, 5)
	b.Ld(6, 2, 0)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Jmp("loop")
	return b.MustBuild()
}

// MicroBranchy returns a data-dependent-branch kernel with ~50%
// mispredict-prone branches — stress for rollback interactions.
func MicroBranchy(base, seed uint64) *prog.Program {
	const words = 512
	b := prog.NewBuilderAt("micro-branchy", base, 8<<10)
	rng := stats.NewRNG(seed ^ 0xb4)
	for i := uint64(0); i < words; i++ {
		b.Word(i*8, rng.Uint64()&1)
	}
	b.MovU64(2, base)
	b.MovI(1, 0)
	b.MovI(3, words)
	b.MovI(5, 0)
	b.Label("loop")
	b.OpI(isa.SLLI, 7, 1, 3)
	b.Op3(isa.ADD, 8, 2, 7)
	b.Ld(4, 8, 0)
	b.Br(isa.BEQ, 4, 0, "skip")
	b.OpI(isa.ADDI, 5, 5, 3)
	b.Jmp("next")
	b.Label("skip")
	b.OpI(isa.ADDI, 5, 5, 1)
	b.Label("next")
	b.St(2, words*8, 5)
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 3, "loop")
	b.MovI(1, 0)
	b.Jmp("loop")
	return b.MustBuild()
}

// Micro is the registry of micro-workloads (not part of Table 1).
func Micro() []Benchmark {
	return []Benchmark{
		{Name: "micro-stream", Suite: "Micro", Paper: "controlled: unit-stride streaming", SegBytes: 16 << 10, Build: MicroStream, shared: true},
		{Name: "micro-chase", Suite: "Micro", Paper: "controlled: randomized pointer chase", SegBytes: 64 << 10, Build: MicroChase, shared: true},
		{Name: "micro-toggle", Suite: "Micro", Paper: "controlled: delinquent-bit toggle", SegBytes: 4 << 10, Build: MicroToggle, shared: true},
		{Name: "micro-branchy", Suite: "Micro", Paper: "controlled: data-dependent branches", SegBytes: 8 << 10, Build: MicroBranchy, shared: true},
	}
}

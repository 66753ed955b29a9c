// Custreplay demonstrates FaultHound's two recovery mechanisms on a
// hand-built program: the delay-buffer predecessor replay (Section 3.3)
// correcting an in-flight register fault, and the commit-time singleton
// re-execute (Section 3.5) correcting and declaring an LSQ fault.
//
//	go run ./examples/custreplay
package main

import (
	"fmt"

	"faulthound/internal/core"
	"faulthound/internal/isa"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
)

func build() *prog.Program {
	// A store whose address and value flow through a short dependence
	// chain — the pattern predecessor replay is designed around.
	b := prog.NewBuilder("custreplay", 4096)
	b.MovU64(2, b.DataBase())
	b.MovI(3, 0)
	b.MovI(4, 1<<30)
	b.Label("loop")
	b.OpI(isa.ANDI, 5, 3, 63)
	b.OpI(isa.SLLI, 5, 5, 3)
	b.Op3(isa.ADD, 6, 2, 5) // address chain
	b.Op3(isa.ADD, 7, 3, 3) // value chain
	b.St(6, 0, 7)
	b.Ld(8, 6, 0)
	b.OpI(isa.ADDI, 3, 3, 1)
	b.Br(isa.BLT, 3, 4, "loop")
	b.Halt()
	return b.MustBuild()
}

func mk(p *prog.Program) *pipeline.Core {
	c, err := pipeline.New(pipeline.DefaultConfig(1),
		[]*prog.Program{p}, core.New(core.DefaultConfig()))
	if err != nil {
		panic(err)
	}
	return c
}

func main() {
	p := build()

	// Golden reference.
	g := mk(p)
	g.RunUntilCommits(0, 4000, 10_000_000)
	want := g.ArchHash(0)

	// --- Predecessor replay: corrupt an in-flight destination register.
	f := mk(p)
	f.RunUntilCommits(0, 2000, 10_000_000)
	regs := f.InFlightDestRegs(nil)
	f.FlipRegisterBit(regs[len(regs)/2], 17)
	before := f.Stats().ReplayTriggers
	f.RunUntilCommits(0, 4000, 10_000_000)
	fmt.Println("--- predecessor replay (in-flight register fault) ---")
	fmt.Printf("replay triggers during window: %d (replayed %d instructions)\n",
		f.Stats().ReplayTriggers-before, f.Stats().ReplayedUops)
	if f.ArchHash(0) == want {
		fmt.Println("architectural state matches the golden run: fault CORRECTED")
	} else {
		fmt.Println("architectural state differs: fault escaped this time")
	}

	// --- Singleton re-execute: corrupt a store's LSQ copy after execute.
	f2 := mk(p)
	f2.RunUntilCommits(0, 2000, 10_000_000)
	var site pipeline.LSQSite
	found := false
	for i := 0; i < 10000 && !found; i++ {
		f2.Step()
		for _, s := range f2.LSQSites(nil) {
			if s.IsStore {
				site, found = s, true
				break
			}
		}
	}
	if !found {
		panic("no LSQ store site found")
	}
	f2.FlipLSQBit(site, pipeline.LSQData, 9)
	declared := f2.Stats().FaultsDeclared
	f2.RunUntilCommits(0, 4000, 10_000_000)
	fmt.Println("\n--- singleton re-execute (LSQ store-value fault) ---")
	fmt.Printf("singleton re-executions: %d, faults declared: %d\n",
		f2.Stats().Singletons, f2.Stats().FaultsDeclared-declared)
	if f2.ArchHash(0) == want {
		fmt.Println("architectural state matches the golden run: fault CORRECTED before the memory write")
	} else if f2.Stats().FaultsDeclared > declared {
		fmt.Println("fault DETECTED (declared) by the re-execute comparison")
	} else {
		fmt.Println("fault escaped this time")
	}
}

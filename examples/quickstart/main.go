// Quickstart: build a tiny program, run it on the simulated
// out-of-order core with FaultHound attached, inject a handful of
// register-file faults, and report what FaultHound did about them.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"faulthound/internal/core"
	"faulthound/internal/fault"
	"faulthound/internal/isa"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
)

func main() {
	// A small kernel: walk an array, transform it, and accumulate a
	// checksum — enough load/store traffic for FaultHound to learn the
	// value neighborhoods.
	b := prog.NewBuilder("quickstart", 4096)
	for i := uint64(0); i < 256; i++ {
		b.Word(i*8, i*5+1)
	}
	b.MovU64(2, b.DataBase())
	b.MovI(3, 0) // i
	b.MovI(4, 1<<30)
	b.MovI(6, 0) // checksum
	b.Label("loop")
	b.OpI(isa.ANDI, 5, 3, 255)
	b.OpI(isa.SLLI, 5, 5, 3)
	b.Op3(isa.ADD, 5, 2, 5)
	b.Ld(7, 5, 0)
	b.Op3(isa.XOR, 6, 6, 7) // running checksum, full width
	b.OpI(isa.XORI, 7, 7, 0x3c)
	b.St(5, 0, 7)
	b.St(2, 256*8, 6) // publish the checksum (faults become visible)
	b.OpI(isa.ADDI, 3, 3, 1)
	b.Br(isa.BLT, 3, 4, "loop")
	b.Halt()
	program := b.MustBuild()

	// Attach full FaultHound (Table-2 configuration: two 32-entry
	// TCAMs, second-level filters, squash machines, LSQ checks).
	mk := func() *pipeline.Core {
		c, err := pipeline.New(pipeline.DefaultConfig(1),
			[]*prog.Program{program}, core.New(core.DefaultConfig()))
		if err != nil {
			panic(err)
		}
		return c
	}

	// Fault-free run: FaultHound must be architecturally transparent.
	c := mk()
	c.RunUntilCommits(0, 20000, 10_000_000)
	fmt.Printf("fault-free run: %d instructions in %d cycles (IPC %.2f)\n",
		c.Committed(0), c.Cycle(), c.Stats().IPC())
	ds := c.Detector().Stats()
	fmt.Printf("detector: %d checks, %d triggers, %d suppressed, %d replays, %d rollbacks\n",
		ds.Checks, ds.Triggers, ds.Suppressed, ds.Replays, ds.Rollbacks)

	// Now a small fault-injection campaign (tandem golden/faulty runs).
	cfg := fault.DefaultConfig()
	cfg.Injections = 400
	cfg.WarmupCycles = 5000

	// Each campaign prepares the golden run once, then runs every
	// pre-drawn fault descriptor on one reusable fault.Worker.
	w := fault.NewWorker(nil)
	run := func(mk func() *pipeline.Core) *fault.Campaign {
		p, err := fault.Prepare(mk, cfg)
		if err != nil {
			panic(err)
		}
		camp := &fault.Campaign{Config: cfg}
		for _, inj := range p.Injections() {
			res, err := p.RunOne(context.Background(), inj, w)
			if err != nil {
				panic(err)
			}
			camp.Results = append(camp.Results, res)
		}
		return camp
	}
	base := run(func() *pipeline.Core {
		c, e := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{program}, nil)
		if e != nil {
			panic(e)
		}
		return c
	})
	det := run(mk)
	masked, noisy, sdc := base.Classification()
	fmt.Printf("\ninjected %d faults (no protection): %d masked, %d noisy, %d SDC\n",
		cfg.Injections, masked, noisy, sdc)
	rep := fault.PairCoverage(base, det)
	fmt.Printf("FaultHound covered %d of %d would-be-SDC faults (%.0f%%)\n",
		rep.CoveredCount, rep.SDCBase, rep.Coverage()*100)
	for _, bin := range fault.BinNames() {
		if rep.Bins[bin] > 0 {
			fmt.Printf("  %-18s %d\n", bin, rep.Bins[bin])
		}
	}
}

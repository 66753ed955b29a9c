package fault_test

import (
	"context"
	"fmt"

	"faulthound/internal/core"
	"faulthound/internal/fault"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/workload"
)

// Example runs a miniature tandem campaign: classify injected faults on
// an unprotected core, then measure how many of the would-be-SDC faults
// FaultHound covers.
func Example() {
	bm, _ := workload.Get("bzip2")
	program := bm.Build(prog.DefaultDataBase, 1)

	mk := func(protected bool) func() *pipeline.Core {
		return func() *pipeline.Core {
			var det *core.FaultHound
			if protected {
				det = core.New(core.DefaultConfig())
			}
			var c *pipeline.Core
			var err error
			if protected {
				c, err = pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{program}, det)
			} else {
				c, err = pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{program}, nil)
			}
			if err != nil {
				panic(err)
			}
			return c
		}
	}

	cfg := fault.DefaultConfig()
	cfg.Injections = 200

	// Prepare each golden run once, then run every pre-drawn descriptor
	// on one reusable Worker.
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
	base := run(mk(false))
	det := run(mk(true))

	masked, noisy, sdc := base.Classification()
	rep := fault.PairCoverage(base, det)
	fmt.Println("outcomes partition the campaign:", masked+noisy+sdc == cfg.Injections)
	fmt.Println("most faults are masked:", masked > cfg.Injections/2)
	fmt.Println("coverage denominator is the SDC count:", rep.SDCBase == sdc)
	fmt.Println("coverage in range:", rep.Coverage() >= 0 && rep.Coverage() <= 1)
	// Output:
	// outcomes partition the campaign: true
	// most faults are masked: true
	// coverage denominator is the SDC count: true
	// coverage in range: true
}

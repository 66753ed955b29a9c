// Faultinjection runs a tandem fault-injection campaign on one
// benchmark and compares FaultHound against the PBFS baselines — a
// miniature of the paper's Figure 8(a) for a single workload.
//
//	go run ./examples/faultinjection [benchmark] [injections]
package main

import (
	"context"
	"fmt"
	"os"
	"strconv"

	"faulthound/internal/core"
	"faulthound/internal/detect"
	"faulthound/internal/fault"
	"faulthound/internal/pbfs"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/workload"
)

func main() {
	bench := "bzip2"
	injections := 200
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	if len(os.Args) > 2 {
		if n, err := strconv.Atoi(os.Args[2]); err == nil {
			injections = n
		}
	}
	bm, err := workload.Get(bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	program := bm.Build(prog.DefaultDataBase, 1)
	mk := func(d detect.Detector) func() *pipeline.Core {
		return func() *pipeline.Core {
			var det detect.Detector
			if d != nil {
				det = d.CloneInto(nil) // fresh detector per core
			}
			c, err := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{program}, det)
			if err != nil {
				panic(err)
			}
			return c
		}
	}

	cfg := fault.DefaultConfig()
	cfg.Injections = injections

	// One fault.Worker runs every injection of every campaign: prepare
	// the golden run, then run each pre-drawn descriptor on it.
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

	fmt.Printf("injecting %d single-bit faults into %s (regfile/LSQ/rename table)\n\n",
		injections, bm.Name)

	base := run(mk(nil))
	masked, noisy, sdc := base.Classification()
	fmt.Printf("unprotected: %5.1f%% masked, %5.1f%% noisy, %5.1f%% SDC\n",
		pct(masked, injections), pct(noisy, injections), pct(sdc, injections))
	fmt.Println()

	schemes := []struct {
		name string
		det  detect.Detector
	}{
		{"pbfs", pbfs.New(pbfs.Default())},
		{"pbfs-biased", pbfs.New(pbfs.Biased())},
		{"faulthound-backend", core.New(core.BackendConfig())},
		{"faulthound", core.New(core.DefaultConfig())},
	}
	fmt.Printf("%-20s %s\n", "scheme", "SDC coverage")
	for _, s := range schemes {
		rep := fault.PairCoverage(base, run(mk(s.det)))
		fmt.Printf("%-20s %5.1f%%  (%d/%d)\n", s.name, rep.Coverage()*100,
			rep.CoveredCount, rep.SDCBase)
	}
}

func pct(n, d int) float64 { return 100 * float64(n) / float64(d) }

// Multicore runs the genuinely parallel Ocean kernel — threads sharing
// one grid and synchronizing through AMOADD barriers — across the
// paper's 8-core, 2-way-SMT machine, with FaultHound attached to every
// core, then injects a register fault in one core mid-run.
//
//	go run ./examples/multicore [cores]
package main

import (
	"fmt"
	"os"
	"strconv"

	"faulthound/internal/core"
	"faulthound/internal/detect"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/system"
	"faulthound/internal/workload"
)

func main() {
	cores := 4
	if len(os.Args) > 1 {
		if n, err := strconv.Atoi(os.Args[1]); err == nil && n > 0 {
			cores = n
		}
	}
	threads := cores * 2

	programs := workload.OceanMP(prog.DefaultDataBase, 1, threads)
	cfg := system.Config{Cores: cores, Core: pipeline.DefaultConfig(2)}
	s, err := system.New(cfg, programs, func(int) detect.Detector {
		return core.New(core.DefaultConfig())
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("machine: %d cores x 2-way SMT (%d hardware threads), FaultHound per core\n",
		cores, threads)
	fmt.Println("workload: shared-grid Ocean with AMOADD barriers")
	fmt.Println()

	s.Run(100_000)
	gen, _ := s.Memory().Read(prog.DefaultDataBase + 16)
	fmt.Printf("after 100k cycles: %d barrier generations, %d instructions committed\n",
		gen, s.CommittedTotal())

	// Inject a register-file fault into core 1 and keep running.
	victim := s.Core(1 % cores)
	if regs := victim.InFlightDestRegs(nil); len(regs) > 0 {
		victim.FlipRegisterBit(regs[0], 21)
		fmt.Println("injected a bit flip into an in-flight register of core 1")
	}
	s.Run(100_000)

	gen2, _ := s.Memory().Read(prog.DefaultDataBase + 16)
	agg := s.Stats()
	fmt.Printf("after 200k cycles: %d barrier generations, %d instructions committed\n",
		gen2, s.CommittedTotal())
	fmt.Printf("aggregate IPC %.2f, replays %d, rollbacks %d, singletons %d\n",
		float64(agg.Committed)/float64(agg.Cycles),
		agg.ReplayTriggers, agg.Rollbacks, agg.Singletons)
	if gen2 > gen {
		fmt.Println("the barrier kept advancing through the fault: the machine survived")
	} else {
		fmt.Println("WARNING: no barrier progress after the fault")
	}
	for i := 0; i < cores; i++ {
		for tid := 0; tid < 2; tid++ {
			if exc, msg := s.Core(i).Excepted(tid); exc {
				fmt.Printf("core %d thread %d exception: %s\n", i, tid, msg)
			}
		}
	}
}

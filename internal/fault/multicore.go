package fault

import (
	"fmt"

	"faulthound/internal/stats"
	"faulthound/internal/system"
)

// RunSystem runs a fault-injection campaign on a whole multicore
// machine — the paper's methodology for the multithreaded benchmarks,
// where "faults are injected in all the cores, each of which runs two
// threads". Injections distribute uniformly across cores; the tandem
// comparison covers the shared memory and every hardware thread's live
// architectural registers, clocked by core 0 / thread 0's commit count.
//
// mk must build a fresh, deterministic machine.
func RunSystem(mk func() *system.System, cfg Config) (*Campaign, error) {
	injs := DrawInjections(cfg)

	golden := mk()
	golden.WarmDetectors(cfg.DetectorWarmupInstr)
	golden.Run(cfg.WarmupCycles)
	if golden.AllHalted() {
		return nil, fmt.Errorf("fault: golden system halted during warmup")
	}
	if exc, msg := golden.AnyExcepted(); exc {
		return nil, fmt.Errorf("fault: golden system excepted during warmup: %s", msg)
	}

	// Golden hash trace, keyed by core-0/thread-0 commit count.
	gold := golden.Clone()
	hashes := make(map[uint64]uint64)
	hashes[gold.Core(0).Committed(0)] = gold.ArchHash()
	gold.Core(0).SetCommitHook(func(tid int, count uint64) {
		if tid == 0 {
			hashes[count] = gold.ArchHash()
		}
	})
	for i := uint64(0); i < cfg.SpreadCycles; i++ {
		gold.Step()
	}
	maxInjCount := gold.Core(0).Committed(0)
	target := maxInjCount + cfg.WindowInstr + 64
	for gold.Core(0).Committed(0) < target && !gold.AllHalted() {
		gold.Step()
	}

	camp := &Campaign{Config: cfg, Results: make([]Result, 0, len(injs))}
	for _, inj := range injs {
		camp.Results = append(camp.Results, runOneSystem(golden, inj, cfg, hashes))
	}
	return camp, nil
}

// runOneSystem is the per-injection tandem step for a multicore
// machine.
func runOneSystem(golden *system.System, inj Injection, cfg Config, goldenHash map[uint64]uint64) Result {
	f := golden.Clone()
	for i := uint64(0); i < inj.CycleOffset; i++ {
		f.Step()
	}
	// Choose the victim core deterministically from the site seed, then
	// inject into it with the standard site logic.
	rng := stats.NewRNG(inj.SiteSeed ^ 0xc0e)
	victim := f.Core(rng.Intn(f.Cores()))
	applyInjection(victim, inj, new(siteScratch))

	ps0 := aggregateFaultStats(f)

	injCount := f.Core(0).Committed(0)
	target := injCount + cfg.WindowInstr
	done := false
	var hash uint64
	f.Core(0).SetCommitHook(func(tid int, count uint64) {
		if tid == 0 && count == target {
			done = true
			hash = f.ArchHash()
		}
	})

	res := Result{Injection: inj}
	var cycles uint64
	for !done {
		if cycles >= cfg.MaxCyclesPerRun || f.AllHalted() {
			break
		}
		f.Step()
		cycles++
	}

	ps := aggregateFaultStats(f)
	res.Detected = ps > ps0

	if exc, _ := f.AnyExcepted(); exc {
		res.Outcome = Noisy
		return res
	}
	if !done {
		res.Outcome = Noisy
		res.Hung = true
		return res
	}
	if want, ok := goldenHash[target]; ok && hash == want {
		res.Outcome = Masked
	} else {
		res.Outcome = SDC
	}
	return res
}

// aggregateFaultStats sums declared faults across cores.
func aggregateFaultStats(s *system.System) uint64 {
	var n uint64
	for i := 0; i < s.Cores(); i++ {
		n += s.Core(i).Stats().FaultsDeclared
	}
	return n
}

package harness

import (
	"context"
	"fmt"

	"faulthound/internal/core"
	"faulthound/internal/detect"
	"faulthound/internal/fault"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/system"
	"faulthound/internal/workload"
)

// MPScaling runs the shared-memory parallel Ocean across 1..8 cores
// (the paper's Table-2 machine is 8 cores x 2-way SMT) with and without
// FaultHound on every core, reporting barrier-round throughput and the
// detection overhead at scale. This extends the paper's evaluation —
// which reports per-core metrics — to the full machine configuration it
// simulates.
func MPScaling(o Options) (*Table, error) {
	t := &Table{
		ID:    "mp-scaling",
		Title: "Multicore scaling: parallel Ocean (AMOADD barriers), baseline vs FaultHound per core",
		Columns: []string{"cores", "threads", "barrier rounds (base)", "rounds (faulthound)",
			"overhead", "aggregate IPC (base)"},
	}
	cycles := o.MeasureCommits * 8 // a fixed cycle budget scales fairly
	if cycles < 40000 {
		cycles = 40000
	}
	for _, cores := range []int{1, 2, 4, 8} {
		threads := cores * 2
		run := func(withDet bool) (uint64, float64, error) {
			programs := workload.OceanMP(prog.DefaultDataBase, o.Seed, threads)
			var mk func(int) detect.Detector
			if withDet {
				mk = func(int) detect.Detector { return core.New(core.DefaultConfig()) }
			}
			s, err := system.New(system.Config{Cores: cores, Core: pipeline.DefaultConfig(2)}, programs, mk)
			if err != nil {
				return 0, 0, err
			}
			s.Run(cycles)
			gen, err := s.Memory().Read(prog.DefaultDataBase + 16)
			if err != nil {
				return 0, 0, err
			}
			st := s.Stats()
			return gen, float64(st.Committed) / float64(st.Cycles), nil
		}
		o.progress("mp-scaling: %d cores", cores)
		base, ipc, err := run(false)
		if err != nil {
			return nil, err
		}
		det, _, err := run(true)
		if err != nil {
			return nil, err
		}
		ov := "n/a"
		if det > 0 {
			ov = pct(float64(base)/float64(det) - 1)
		}
		t.AddRow(fmt.Sprintf("%d", cores), fmt.Sprintf("%d", threads),
			fmt.Sprintf("%d", base), fmt.Sprintf("%d", det), ov, fmt.Sprintf("%.2f", ipc))
	}
	t.Notes = append(t.Notes,
		"rounds = completed barrier generations in a fixed cycle budget; overhead = base/faulthound - 1")
	return t, nil
}

// MPCoverage runs the paper's multithreaded-benchmark injection
// methodology — faults distributed across all cores of the machine —
// on the shared-memory parallel Ocean, comparing FaultHound coverage
// against the unprotected machine. Each (cores, scheme) cell is
// prepared once (fault.PrepareSystem) and its descriptors run on one
// fault.Worker.
func MPCoverage(o Options) (*Table, error) {
	t := &Table{
		ID:      "mp-coverage",
		Title:   "Multicore fault injection: parallel Ocean, faults across all cores",
		Columns: []string{"cores", "masked", "noisy", "sdc", "faulthound coverage"},
	}
	cfg := o.Fault
	w := fault.NewWorker(nil)
	runCell := func(mk func() *system.System) (*fault.Campaign, error) {
		p, err := fault.PrepareSystem(mk, cfg)
		if err != nil {
			return nil, err
		}
		camp := &fault.Campaign{Config: cfg, Results: make([]fault.Result, len(p.Injections()))}
		for i, inj := range p.Injections() {
			if camp.Results[i], err = p.RunOne(context.Background(), inj, w); err != nil {
				return nil, err
			}
		}
		return camp, nil
	}
	for _, cores := range []int{1, 2} {
		threads := cores * 2
		mk := func(withDet bool) func() *system.System {
			return func() *system.System {
				programs := workload.OceanMP(prog.DefaultDataBase, o.Seed, threads)
				var mkDet func(int) detect.Detector
				if withDet {
					mkDet = func(int) detect.Detector { return core.New(core.DefaultConfig()) }
				}
				s, err := system.New(system.Config{Cores: cores, Core: pipeline.DefaultConfig(2)}, programs, mkDet)
				if err != nil {
					panic(err)
				}
				return s
			}
		}
		o.progress("mp-coverage: %d cores (baseline)", cores)
		base, err := runCell(mk(false))
		if err != nil {
			return nil, err
		}
		o.progress("mp-coverage: %d cores (faulthound)", cores)
		det, err := runCell(mk(true))
		if err != nil {
			return nil, err
		}
		m, n, s := base.Classification()
		tot := float64(m + n + s)
		rep := fault.PairCoverage(base, det)
		t.AddRow(fmt.Sprintf("%d", cores),
			pct(float64(m)/tot), pct(float64(n)/tot), pct(float64(s)/tot),
			pct(rep.Coverage()))
	}
	t.Notes = append(t.Notes,
		"the paper injects faults 'in all the cores' for the multithreaded benchmarks; this runs that methodology end to end")
	return t, nil
}

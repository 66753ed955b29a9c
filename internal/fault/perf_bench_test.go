package fault

import (
	"context"
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/detect"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/system"
	"faulthound/internal/workload"
)

// Microbenchmarks for the injection engine's hot path: the per-run
// snapshot (clone) plus the faulty window. Campaign wall time is
// dominated by these; they are `go test -bench` profiling entry points
// beside the end-to-end benchmark in bench/ (docs/PERFORMANCE.md).

// benchConfig is the benchmarks' campaign configuration.
func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupCycles = 20000
	cfg.DetectorWarmupInstr = 100000
	cfg.MaxCyclesPerRun = 30000
	return cfg
}

// benchPrepared builds a warmed FaultHound campaign once per benchmark.
func benchPrepared(b *testing.B) *Prepared {
	b.Helper()
	bm, err := workload.Get("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	p := bm.Build(prog.DefaultDataBase, 3)
	fhCfg := core.DefaultConfig()
	mk := func() *pipeline.Core {
		c, err := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{p}, core.New(fhCfg))
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	prep, err := Prepare(mk, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return prep
}

// benchPreparedSystem builds a warmed campaign on a 2-core machine
// running the shared-memory parallel Ocean, FaultHound on both cores.
func benchPreparedSystem(b *testing.B) *Prepared {
	b.Helper()
	mk := func() *system.System {
		programs := workload.OceanMP(prog.DefaultDataBase, 1, 4)
		s, err := system.New(system.Config{Cores: 2, Core: pipeline.DefaultConfig(2)}, programs,
			func(int) detect.Detector { return core.New(core.DefaultConfig()) })
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	prep, err := PrepareSystem(mk, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return prep
}

// BenchmarkRunOne measures one complete injection — snapshot of the
// golden machine, advance to the fault cycle, flip, run the window,
// classify — exactly as a campaign worker executes it, on one reused
// Worker: on a bzip2 core, and on the 2-core parallel Ocean machine
// that mp-coverage injects. allocs/op here is the per-injection
// overhead that remains after the CoW/arena path.
func BenchmarkRunOne(b *testing.B) {
	for _, c := range []struct {
		name string
		prep func(*testing.B) *Prepared
	}{{"bzip2", benchPrepared}, {"ocean-2core", benchPreparedSystem}} {
		b.Run(c.name, func(b *testing.B) {
			p := c.prep(b)
			injs := p.Injections()
			w := NewWorker(nil)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = p.RunOne(ctx, injs[i%len(injs)], w)
			}
		})
	}
}

// BenchmarkPreparedParallel measures sustained injections/sec with a
// full GOMAXPROCS set of goroutines over one prepared golden run — the
// steady-state regime of fhcampaign and fhserved, one Worker per
// goroutine as in campaign.Engine.
func BenchmarkPreparedParallel(b *testing.B) {
	p := benchPrepared(b)
	injs := p.Injections()
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := NewWorker(nil)
		i := 0
		for pb.Next() {
			_, _ = p.RunOne(ctx, injs[i%len(injs)], w)
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "inj/s")
	// Acceleration quality ride-alongs: the fraction of runs classified
	// at reconvergence, and the fraction of pre-injection fast-forward
	// cycles skipped by checkpoint forking.
	pf := p.Perf()
	b.ReportMetric(pf.EarlyExitFrac(), "early-exit-frac")
	b.ReportMetric(pf.ForkSavedFrac(), "fork-saved-frac")
}

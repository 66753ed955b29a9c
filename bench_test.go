// Package repro's benchmarks regenerate every table and figure of the
// paper's evaluation (DESIGN.md experiment index) and the ablations of
// its design choices. Each benchmark runs a scaled-down experiment per
// iteration and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// yields the paper-shaped numbers alongside the usual timing. The full,
// paper-scale runs are produced by cmd/faulthound.
package main

import (
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/detect"
	"faulthound/internal/energy"
	"faulthound/internal/fault"
	"faulthound/internal/filter"
	"faulthound/internal/harness"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/scheme"
	"faulthound/internal/tcam"
	"faulthound/internal/workload"
)

// benchSubset is a cross-suite subset that keeps bench runtimes sane
// while spanning the workload classes.
var benchSubset = []string{"bzip2", "mcf", "gamess", "apache", "ocean"}

func benchOptions() harness.Options {
	o := harness.QuickOptions()
	o.Benchmarks = benchSubset
	o.MeasureCommits = 8000
	o.Fault.Injections = 80
	o.Fault.WarmupCycles = 6000
	return o
}

// bzip2Campaigns runs bzip2's fault campaigns through the campaign
// engine: the baseline cell first, then one cell per scheme.
func bzip2Campaigns(b *testing.B, o harness.Options, schemes ...harness.Scheme) []*fault.Campaign {
	b.Helper()
	out, err := o.RunCampaign(o.CampaignSpec([]string{"bzip2"}, schemes))
	if err != nil {
		b.Fatal(err)
	}
	return out.Campaigns
}

// timing is one timing run of bzip2 under the named scheme.
func timing(b *testing.B, o harness.Options, s harness.Scheme) harness.Run {
	b.Helper()
	bm, err := workload.Get("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	run, err := o.TimingRunSpec(bm, scheme.FromString(string(s)))
	if err != nil {
		b.Fatal(err)
	}
	return run
}

func BenchmarkTable1Workloads(b *testing.B) {
	// Table 1: every benchmark kernel builds and runs.
	for i := 0; i < b.N; i++ {
		for _, bm := range workload.All() {
			p := bm.Build(prog.DefaultDataBase, 1)
			c, err := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{p}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if !c.RunUntilCommits(0, 2000, 1_000_000) {
				b.Fatalf("%s stalled", bm.Name)
			}
		}
	}
	b.ReportMetric(float64(len(workload.All())), "benchmarks")
}

func BenchmarkTable2Pipeline(b *testing.B) {
	// Table 2: the configured core sustains its baseline throughput.
	bm, _ := workload.Get("bzip2")
	p := bm.Build(prog.DefaultDataBase, 1)
	var ipc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := pipeline.New(pipeline.DefaultConfig(2), []*prog.Program{p, p}, nil)
		if err != nil {
			b.Fatal(err)
		}
		c.RunUntilCommits(0, 8000, 10_000_000)
		ipc = c.Stats().IPC()
	}
	b.ReportMetric(ipc, "IPC")
}

func BenchmarkFig6BitChange(b *testing.B) {
	o := benchOptions()
	var mean float64
	for i := 0; i < b.N; i++ {
		t, err := harness.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
		_ = t
		mean = 1
	}
	b.ReportMetric(mean, "ran")
}

func BenchmarkFig7FaultCharacterization(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"bzip2", "gamess"}
	var maskedPct float64
	for i := 0; i < b.N; i++ {
		camp := bzip2Campaigns(b, o)[0]
		m, _, _ := camp.Classification()
		maskedPct = 100 * float64(m) / float64(len(camp.Results))
	}
	b.ReportMetric(maskedPct, "masked%")
}

func BenchmarkFig8aCoverage(b *testing.B) {
	o := benchOptions()
	var cov float64
	for i := 0; i < b.N; i++ {
		camps := bzip2Campaigns(b, o, harness.FaultHound)
		base, det := camps[0], camps[1]
		cov = fault.PairCoverage(base, det).Coverage() * 100
	}
	b.ReportMetric(cov, "coverage%")
}

func BenchmarkFig8bFalsePositives(b *testing.B) {
	o := benchOptions()
	var fp float64
	for i := 0; i < b.N; i++ {
		fp = 100 * timing(b, o, harness.FaultHound).FPRate()
	}
	b.ReportMetric(fp, "fp%")
}

func BenchmarkFig9Performance(b *testing.B) {
	o := benchOptions()
	var deg float64
	for i := 0; i < b.N; i++ {
		base, fh := timing(b, o, harness.Baseline), timing(b, o, harness.FaultHound)
		deg = 100 * (float64(fh.Cycles)/float64(base.Cycles) - 1)
	}
	b.ReportMetric(deg, "slowdown%")
}

func BenchmarkFig10Energy(b *testing.B) {
	o := benchOptions()
	var ov float64
	for i := 0; i < b.N; i++ {
		base, fh := timing(b, o, harness.Baseline), timing(b, o, harness.FaultHound)
		ov = 100 * energy.Overhead(fh.Energy.Total(), base.Energy.Total())
	}
	b.ReportMetric(ov, "energy-overhead%")
}

func BenchmarkFig11Breakdown(b *testing.B) {
	o := benchOptions()
	var noTrig float64
	for i := 0; i < b.N; i++ {
		camps := bzip2Campaigns(b, o, harness.FaultHound)
		base, det := camps[0], camps[1]
		rep := fault.PairCoverage(base, det)
		noTrig = rep.BinFraction(fault.NoTrigger) * 100
	}
	b.ReportMetric(noTrig, "no-trigger%")
}

func BenchmarkFig12Ablation(b *testing.B) {
	o := benchOptions()
	var gap float64
	for i := 0; i < b.N; i++ {
		gap = 100 * (timing(b, o, harness.FHBENoClust).FPRate() - timing(b, o, harness.FHBackend).FPRate())
	}
	b.ReportMetric(gap, "fp-reduction-pts")
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

func BenchmarkAblationStateMachines(b *testing.B) {
	// Sticky vs biased filter policies: trigger counts on one stream.
	for _, pol := range []filter.Policy{filter.Sticky, filter.Biased2, filter.Biased3, filter.Standard4} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var triggers uint64
			for i := 0; i < b.N; i++ {
				cfg := tcam.DefaultConfig()
				cfg.Policy = pol
				cfg.SecondLevel = false
				cfg.SquashMachines = false
				tc := tcam.New(cfg)
				triggers = 0
				for v := uint64(0); v < 20000; v++ {
					r := tc.Lookup(0x10000000 + (v%512)*8)
					if r.Trigger {
						triggers++
					}
				}
			}
			b.ReportMetric(float64(triggers), "triggers")
		})
	}
}

func BenchmarkAblationTCAMSize(b *testing.B) {
	bm, _ := workload.Get("apache")
	p := bm.Build(prog.DefaultDataBase, 1)
	for _, entries := range []int{8, 16, 32, 64} {
		entries := entries
		b.Run(map[int]string{8: "8", 16: "16", 32: "32", 64: "64"}[entries], func(b *testing.B) {
			var fp float64
			for i := 0; i < b.N; i++ {
				cfg := core.BackendConfig()
				cfg.Addr.Entries = entries
				cfg.Value.Entries = entries
				c, err := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{p}, core.New(cfg))
				if err != nil {
					b.Fatal(err)
				}
				c.RunUntilCommits(0, 8000, 10_000_000)
				ds := c.Detector().Stats()
				fp = 100 * float64(ds.Replays+ds.Rollbacks+ds.Singletons) / float64(c.Committed(0))
			}
			b.ReportMetric(fp, "fp%")
		})
	}
}

func BenchmarkAblationLoosenThreshold(b *testing.B) {
	bm, _ := workload.Get("bzip2")
	p := bm.Build(prog.DefaultDataBase, 1)
	for _, thr := range []int{2, 4, 8} {
		thr := thr
		b.Run(map[int]string{2: "2", 4: "4", 8: "8"}[thr], func(b *testing.B) {
			var replaced float64
			for i := 0; i < b.N; i++ {
				cfg := core.BackendConfig()
				cfg.Addr.LoosenThreshold = thr
				cfg.Value.LoosenThreshold = thr
				det := core.New(cfg)
				c, err := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{p}, det)
				if err != nil {
					b.Fatal(err)
				}
				c.RunUntilCommits(0, 8000, 10_000_000)
				a, v := det.TCAMStats()
				replaced = float64(a.Replaced + v.Replaced)
			}
			b.ReportMetric(replaced, "replacements")
		})
	}
}

func BenchmarkAblationDelayBuffer(b *testing.B) {
	bm, _ := workload.Get("bzip2")
	p := bm.Build(prog.DefaultDataBase, 1)
	for _, depth := range []int{4, 7, 12} {
		depth := depth
		b.Run(map[int]string{4: "4", 7: "7", 12: "12"}[depth], func(b *testing.B) {
			var perReplay float64
			for i := 0; i < b.N; i++ {
				pcfg := pipeline.DefaultConfig(1)
				pcfg.DelayBuffer = depth
				c, err := pipeline.New(pcfg, []*prog.Program{p}, core.New(core.BackendConfig()))
				if err != nil {
					b.Fatal(err)
				}
				c.RunUntilCommits(0, 8000, 10_000_000)
				s := c.Stats()
				if s.ReplayTriggers > 0 {
					perReplay = float64(s.ReplayedUops) / float64(s.ReplayTriggers)
				}
			}
			b.ReportMetric(perReplay, "uops/replay")
		})
	}
}

func BenchmarkAblationSecondLevel(b *testing.B) {
	bm, _ := workload.Get("bzip2")
	p := bm.Build(prog.DefaultDataBase, 1)
	for _, states := range []int{4, 8, 16} {
		states := states
		b.Run(map[int]string{4: "4", 8: "8", 16: "16"}[states], func(b *testing.B) {
			var suppressed float64
			for i := 0; i < b.N; i++ {
				cfg := core.BackendConfig()
				cfg.Addr.SecondLevelStates = states
				cfg.Value.SecondLevelStates = states
				c, err := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{p}, core.New(cfg))
				if err != nil {
					b.Fatal(err)
				}
				c.RunUntilCommits(0, 8000, 10_000_000)
				ds := c.Detector().Stats()
				if ds.Triggers > 0 {
					suppressed = 100 * float64(ds.Suppressed) / float64(ds.Triggers)
				}
			}
			b.ReportMetric(suppressed, "suppressed%")
		})
	}
}

func BenchmarkAblationMixedTCAM(b *testing.B) {
	// Separate vs shared address/value filters (Section 3.1 argues for
	// separate). The mixed variant routes everything into one bank by
	// checking address and value streams against the same TCAM.
	bm, _ := workload.Get("bzip2")
	p := bm.Build(prog.DefaultDataBase, 1)
	run := func(b *testing.B, mixed bool) float64 {
		cfg := tcam.DefaultConfig()
		cfg.SquashMachines = false
		addr := tcam.New(cfg)
		value := addr
		if !mixed {
			value = tcam.New(cfg)
		}
		c, err := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{p}, nil)
		if err != nil {
			b.Fatal(err)
		}
		var triggers, checks uint64
		c.SetProbe(func(ev detect.Event) {
			checks++
			tc := addr
			if ev.Kind == detect.StoreValue {
				tc = value
			}
			if r := tc.Lookup(ev.Value); r.Trigger && !r.Suppressed {
				triggers++
			}
		})
		c.RunUntilCommits(0, 8000, 10_000_000)
		return 100 * float64(triggers) / float64(checks)
	}
	b.Run("separate", func(b *testing.B) {
		var r float64
		for i := 0; i < b.N; i++ {
			r = run(b, false)
		}
		b.ReportMetric(r, "trigger%")
	})
	b.Run("mixed", func(b *testing.B) {
		var r float64
		for i := 0; i < b.N; i++ {
			r = run(b, true)
		}
		b.ReportMetric(r, "trigger%")
	})
}

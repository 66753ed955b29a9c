package fault

import (
	"context"
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/obs"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/workload"
)

// mkCore builds a single-thread core running a workload (a kernel or
// a generated spec), with an optional FaultHound config.
func mkCore(t *testing.T, bench string, fh *core.Config) func() *pipeline.Core {
	t.Helper()
	bm, err := workload.Resolve(bench)
	if err != nil {
		t.Fatal(err)
	}
	p := bm.Build(prog.DefaultDataBase, 3)
	return func() *pipeline.Core {
		var det *core.FaultHound
		cfg := pipeline.DefaultConfig(1)
		if fh != nil {
			det = core.New(*fh)
			c, err := pipeline.New(cfg, []*prog.Program{p}, det)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		c, err := pipeline.New(cfg, []*prog.Program{p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Injections = 80
	cfg.WarmupCycles = 2000
	cfg.MaxCyclesPerRun = 20000
	return cfg
}

// runAll runs every injection of p in descriptor order. With reuse,
// one Worker serves them all, as in a campaign worker; without, each
// injection gets a fresh Worker — the reference the reuse and
// concurrency tests compare against.
func runAll(t *testing.T, p *Prepared, reuse bool) []Result {
	t.Helper()
	w := NewWorker(nil)
	out := make([]Result, len(p.Injections()))
	for i, inj := range p.Injections() {
		if !reuse {
			w = NewWorker(nil)
		}
		res, err := p.RunOne(context.Background(), inj, w)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// runCampaign prepares a campaign and runs it on one Worker.
func runCampaign(t *testing.T, mk func() *pipeline.Core, cfg Config) *Campaign {
	t.Helper()
	p, err := Prepare(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &Campaign{Config: cfg, Results: runAll(t, p, true)}
}

func TestDrawInjectionsDeterministic(t *testing.T) {
	cfg := smallConfig()
	a := DrawInjections(cfg)
	b := DrawInjections(cfg)
	if len(a) != cfg.Injections {
		t.Fatalf("drew %d injections", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("injection streams differ for the same seed")
		}
	}
}

func TestDrawInjectionsProportions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Injections = 5000
	injs := DrawInjections(cfg)
	var counts [3]int
	for _, in := range injs {
		counts[in.Structure]++
	}
	frac := func(s Structure) float64 { return float64(counts[s]) / float64(len(injs)) }
	if f := frac(RenameTable); f < 0.16 || f > 0.24 {
		t.Errorf("rename fraction = %v, want ~0.20", f)
	}
	if f := frac(LSQ); f < 0.05 || f > 0.11 {
		t.Errorf("lsq fraction = %v, want ~0.08", f)
	}
	if f := frac(RegFile); f < 0.66 || f > 0.78 {
		t.Errorf("regfile fraction = %v, want ~0.72", f)
	}
}

func TestCampaignClassification(t *testing.T) {
	camp := runCampaign(t, mkCore(t, "bzip2", nil), smallConfig())
	masked, noisy, sdc := camp.Classification()
	total := masked + noisy + sdc
	if total != len(camp.Results) || total != smallConfig().Injections {
		t.Fatalf("classification does not partition: %d/%d/%d of %d", masked, noisy, sdc, total)
	}
	// The paper's headline: most faults are masked.
	if masked < total/2 {
		t.Errorf("masked = %d of %d; expected a majority", masked, total)
	}
	// Some faults must corrupt state (otherwise the experiment is
	// degenerate).
	if sdc == 0 {
		t.Error("no SDC faults at all; injection seems ineffective")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	mk := mkCore(t, "bzip2", nil)
	a := runCampaign(t, mk, smallConfig())
	b := runCampaign(t, mk, smallConfig())
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("result %d differs between identical campaigns", i)
		}
	}
}

func TestCoveragePairing(t *testing.T) {
	cfg := smallConfig()
	cfg.Injections = 120
	base := runCampaign(t, mkCore(t, "bzip2", nil), cfg)
	fhCfg := core.DefaultConfig()
	det := runCampaign(t, mkCore(t, "bzip2", &fhCfg), cfg)
	rep := PairCoverage(base, det)
	if rep.SDCBase == 0 {
		t.Skip("no SDC faults in this small campaign")
	}
	cov := rep.Coverage()
	if cov < 0 || cov > 1 {
		t.Fatalf("coverage = %v out of range", cov)
	}
	// Bin conservation: bins partition the SDC-base faults.
	sum := 0
	for _, b := range BinNames() {
		sum += rep.Bins[b]
	}
	if sum != rep.SDCBase {
		t.Fatalf("bins sum to %d, SDC base is %d", sum, rep.SDCBase)
	}
	t.Logf("SDC=%d coverage=%.2f bins=%v", rep.SDCBase, cov, rep.Bins)
}

func TestFaultHoundCoversSomething(t *testing.T) {
	// On a locality-friendly kernel, FaultHound must cover a meaningful
	// fraction of SDC faults (the paper's headline is 75% overall).
	// SDC faults are ~7% of injections, so the campaign must be large
	// enough to have a meaningful denominator, and warmup long enough
	// that the filters are in steady state (the regime the paper
	// measures).
	cfg := DefaultConfig()
	cfg.Injections = 600
	base := runCampaign(t, mkCore(t, "bzip2", nil), cfg)
	fhCfg := core.DefaultConfig()
	det := runCampaign(t, mkCore(t, "bzip2", &fhCfg), cfg)
	rep := PairCoverage(base, det)
	if rep.SDCBase < 12 {
		t.Skip("too few SDC faults to judge coverage")
	}
	if rep.Coverage() < 0.25 {
		t.Errorf("FaultHound coverage = %.2f (%d/%d); implausibly low",
			rep.Coverage(), rep.CoveredCount, rep.SDCBase)
	}
}

func TestStructureAndOutcomeStrings(t *testing.T) {
	if RegFile.String() != "regfile" || RenameTable.String() != "rename" || LSQ.String() != "lsq" {
		t.Fatal("structure names")
	}
	if Masked.String() != "masked" || Noisy.String() != "noisy" || SDC.String() != "sdc" {
		t.Fatal("outcome names")
	}
	for _, b := range BinNames() {
		if b.String() == "?" {
			t.Fatal("unnamed bin")
		}
	}
}

// TestRunOneObsLifecycle checks the instrumented run path: a reused
// Worker with a live sink reproduces the results of a fresh, uninstru-
// mented Worker per injection (a nil sink and a live sink must not
// diverge), and the sink sees each run's "inject" instant with the
// injection's cycle and structure. When the run is detected, the
// one-time "detect" instant must carry the cycle of the first detector
// action.
func TestRunOneObsLifecycle(t *testing.T) {
	cfg := smallConfig()
	cfg.Injections = 24
	fhCfg := core.DefaultConfig()
	p, err := Prepare(mkCore(t, "bzip2", &fhCfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := runAll(t, p, false)
	var c obs.Collector
	w := NewWorker(&c)
	sawDetect := false
	for i, inj := range p.Injections() {
		seen := len(c.Events())
		got, err := p.RunOne(context.Background(), inj, w)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("instrumented run diverged: got %+v, want %+v", got, want[i])
		}
		evs := c.Events()[seen:]
		if len(evs) == 0 || evs[0].Name != "inject" || evs[0].Kind != obs.KindInstant {
			t.Fatalf("first event = %+v, want inject instant", evs)
		}
		injectCycle := evs[0].Cycle
		if injectCycle < cfg.WarmupCycles || evs[0].Arg != inj.Structure.String() {
			t.Fatalf("inject instant %+v does not match injection %+v", evs[0], inj)
		}
		var detects int
		for _, ev := range evs[1:] {
			if ev.Name == "detect" {
				detects++
				sawDetect = true
				if ev.Cycle < injectCycle {
					t.Fatalf("detect at cycle %d before injection at %d", ev.Cycle, injectCycle)
				}
			}
		}
		if detects > 1 {
			t.Fatalf("%d detect instants for one run, want at most 1", detects)
		}
	}
	if !sawDetect {
		t.Log("no injection was detected in this draw (latency path unexercised)")
	}
}

package fault

import (
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/detect"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/stats"
	"faulthound/internal/system"
	"faulthound/internal/workload"
)

// mkSystem builds a 2-core machine running the shared-memory parallel
// Ocean, with or without FaultHound per core.
func mkSystem(t *testing.T, protected bool) func() *system.System {
	t.Helper()
	return func() *system.System {
		programs := workload.OceanMP(prog.DefaultDataBase, 9, 4)
		var mk func(int) detect.Detector
		if protected {
			mk = func(int) detect.Detector { return core.New(core.DefaultConfig()) }
		}
		s, err := system.New(system.Config{Cores: 2, Core: pipeline.DefaultConfig(2)}, programs, mk)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func mpConfig() Config {
	cfg := DefaultConfig()
	cfg.Injections = 60
	cfg.WarmupCycles = 8000
	cfg.DetectorWarmupInstr = 50_000
	cfg.MaxCyclesPerRun = 30000
	return cfg
}

// runSystem prepares a multicore campaign and runs it on one Worker.
func runSystem(t *testing.T, mk func() *system.System, cfg Config) *Campaign {
	t.Helper()
	p, err := PrepareSystem(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &Campaign{Config: cfg, Results: runAll(t, p, true)}
}

// TestSystemCampaignNoopDeterminism: with the flips suppressed, every
// run of a machine simulates its whole window (no early exit) and ends
// with the golden hash.
func TestSystemCampaignNoopDeterminism(t *testing.T) {
	old := noopInjections
	noopInjections = true
	defer func() { noopInjections = old }()
	camp := &Campaign{Results: runAll(t, prepareLegacy(t, mkSystem(t, false), mpConfig()), true)}
	m, n, s := camp.Classification()
	if s != 0 {
		t.Fatalf("multicore tandem nondeterminism: %d/%d/%d masked/noisy/sdc", m, n, s)
	}
}

func TestSystemCampaignClassifies(t *testing.T) {
	camp := runSystem(t, mkSystem(t, false), mpConfig())
	m, n, s := camp.Classification()
	if m+n+s != mpConfig().Injections {
		t.Fatalf("partition broken: %d/%d/%d", m, n, s)
	}
	if m == 0 {
		t.Fatal("no masked faults at all")
	}
	t.Logf("multicore campaign: %d masked, %d noisy, %d SDC", m, n, s)
}

func TestSystemCampaignPairsWithDetector(t *testing.T) {
	cfg := mpConfig()
	cfg.Injections = 120
	base := runSystem(t, mkSystem(t, false), cfg)
	det := runSystem(t, mkSystem(t, true), cfg)
	rep := PairCoverage(base, det)
	if rep.SDCBase == 0 {
		t.Skip("no SDC faults in this small multicore campaign")
	}
	if rep.Coverage() < 0 || rep.Coverage() > 1 {
		t.Fatalf("coverage out of range: %v", rep.Coverage())
	}
	t.Logf("multicore coverage: %.0f%% of %d SDC faults", rep.Coverage()*100, rep.SDCBase)
}

// TestVictimCore: a machine's flip lands on the core drawn from its
// SiteSeed by an RNG of its own (SiteSeed ^ 0xc0e), and a campaign's
// descriptors draw every core. An in-flight register flip, which no
// digest tolerates, shows which core took it.
func TestVictimCore(t *testing.T) {
	p, err := PrepareSystem(mkSystem(t, true), mpConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := p.golden
	for i := 0; i < g.Cores(); i++ {
		if len(g.Core(i).InFlightDestRegs(nil)) == 0 {
			t.Fatalf("golden core %d holds no in-flight register: the check is vacuous", i)
		}
	}
	gd := g.CaptureDigest()
	arena := system.NewSnapshotArena()
	var sc siteScratch
	hits := make([]int, g.Cores())
	for _, inj := range p.Injections() {
		if inj.Structure != RegFile || !inj.InFlight {
			continue
		}
		f := g.Snapshot(arena)
		applyInjection(f, inj, &sc)
		want := stats.NewRNG(inj.SiteSeed ^ 0xc0e).Intn(g.Cores())
		for i := 0; i < f.Cores(); i++ {
			if hit := !f.Core(i).MatchesDigest(&gd[i]); hit != (i == want) {
				t.Fatalf("descriptor %+v: core %d flipped = %v, want the flip on core %d only", inj, i, hit, want)
			}
		}
		hits[want]++
	}
	for i, n := range hits {
		if n == 0 {
			t.Errorf("no descriptor drew core %d (%v)", i, hits)
		}
	}
}

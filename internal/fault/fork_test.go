package fault

import (
	"context"
	"errors"
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/isa"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/stats"
	"faulthound/internal/system"
	"faulthound/internal/workload"
)

// prepareLegacy prepares without replay acceleration: every run
// fast-forwards from the spread start and simulates its full window —
// the path whose results the accelerated paths must reproduce bit for
// bit.
func prepareLegacy(t *testing.T, mk func() *system.System, cfg Config) *Prepared {
	t.Helper()
	p, err := prepare(mk, cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// unnamedSites returns two descriptors at cycle offset off whose sites
// belong to the first integer register bench's code never names: a
// register-file flip in its physical register (NewShared maps thread
// 0's integer register r to physical register r, and no instruction
// ever redefines an unnamed register), and a flip in its rename-table
// entry. Each SiteSeed is searched for the draw applyInjection makes.
func unnamedSites(t *testing.T, bench string, off uint64) []Injection {
	t.Helper()
	bm, err := workload.Resolve(bench)
	if err != nil {
		t.Fatal(err)
	}
	var named uint64
	for _, in := range bm.Build(prog.DefaultDataBase, 3).Code {
		if in.HasDest() {
			named |= 1 << in.Rd
		}
		for _, r := range in.SrcRegs() {
			named |= 1 << r
		}
	}
	r := isa.Reg(1)
	for r < isa.NumIntRegs && named>>r&1 != 0 {
		r++
	}
	if r == isa.NumIntRegs {
		t.Fatalf("%s names every integer register", bench)
	}
	seed := func(n int) uint64 {
		s := uint64(1)
		for stats.NewRNG(s).Intn(n) != int(r)-1 {
			s++
		}
		return s
	}
	cfg := pipeline.DefaultConfig(1)
	return []Injection{
		{Structure: RegFile, CycleOffset: off, Bit: 17, SiteSeed: seed(cfg.IntPhysRegs + cfg.FPPhysRegs - 1)},
		{Structure: RenameTable, CycleOffset: off, Bit: 2, SiteSeed: seed(isa.NumArchRegs - 1)},
	}
}

// TestCheckpointForkEquivalence sweeps the checkpoint cadence × early
// exit and asserts every Result — outcome, hang flag, detection flag,
// all five background-subtracted detector counters and the detection
// latency — is bit-identical to the legacy path's, for a FaultHound
// and a detector-less baseline cell on bzip2, a FaultHound cell on a
// generated program, whose register usage differs from the kernels',
// and a 2-core parallel Ocean machine with FaultHound on every core.
// Each single-core cell also runs two descriptors that flip an unnamed
// register (unnamedSites); with early exit on, both must exit early.
// Those are drawn against one kernel's code, so the machine has none.
func TestCheckpointForkEquivalence(t *testing.T) {
	fh := core.DefaultConfig()
	cells := []struct {
		name  string
		mk    func() *system.System
		cfg   Config
		sites []Injection
		// minEarly floors the early exits at ckpt=64 with early exit:
		// half of today's 73 (FaultHound), 64 (baseline) and 71
		// (generated) of 80 runs, and 46 of the machine's 60.
		minEarly uint64
	}{
		{"faulthound", oneCore(mkCore(t, "bzip2", &fh)), smallConfig(), unnamedSites(t, "bzip2", 200), 37},
		{"baseline", oneCore(mkCore(t, "bzip2", nil)), smallConfig(), unnamedSites(t, "bzip2", 200), 32},
		{"generated", oneCore(mkCore(t, "gen?vlocal=0.5", &fh)), smallConfig(), unnamedSites(t, "gen?vlocal=0.5", 200), 36},
		{"2-core", mkSystem(t, true), mpConfig(), nil, 23},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			cfg := cell.cfg
			legacy := prepareLegacy(t, cell.mk, cfg)
			want := runAll(t, legacy, false)
			wantSites := make([]Result, len(cell.sites))
			for i, inj := range cell.sites {
				res, err := legacy.RunOne(context.Background(), inj, NewWorker(nil))
				if err != nil {
					t.Fatal(err)
				}
				wantSites[i] = res
			}

			for _, ckpt := range []uint64{0, 64, 256, 1024} {
				for _, early := range []bool{false, true} {
					if ckpt == 0 && !early {
						continue // the reference itself
					}
					p, err := prepare(cell.mk, cfg, ckpt, early)
					if err != nil {
						t.Fatal(err)
					}
					for i, got := range runAll(t, p, true) {
						if got != want[i] {
							t.Fatalf("ckpt=%d early=%v injection %d: got %+v, want %+v",
								ckpt, early, i, got, want[i])
						}
					}
					pf := p.Perf()
					t.Logf("ckpt=%d early=%v: %d of %d runs exited early", ckpt, early, pf.EarlyExits, pf.Runs)
					// Any acceleration passes, except at Prepare's own
					// setting, ckpt=64 with early exit: there the floors are
					// half of today's counts, so halving either fails.
					// Forking saves 17792/20269 = 0.878 of the fast-forward
					// cycles on both bzip2 cells.
					var minEarly uint64
					var minSaved float64
					if ckpt == checkpointCadence && early {
						minEarly, minSaved = cell.minEarly, 0.44
					}
					// ckpt=1024 exceeds the 500-cycle spread, so no
					// checkpoint fits inside it and every run legitimately
					// forks from the spread start.
					if ckpt != 0 && ckpt < cfg.SpreadCycles && (pf.ForkCyclesSaved == 0 || pf.ForkSavedFrac() < minSaved) {
						t.Errorf("ckpt=%d early=%v: checkpoint forking saved %d of %d fast-forward cycles, want some and a fraction >= %g",
							ckpt, early, pf.ForkCyclesSaved, pf.OffsetCycles, minSaved)
					}
					if early && (pf.EarlyExits == 0 || pf.EarlyExits < minEarly) {
						t.Errorf("ckpt=%d early=%v: %d of %d runs took the reconvergence early-exit, want some and >= %d",
							ckpt, early, pf.EarlyExits, pf.Runs, minEarly)
					}

					for i, inj := range cell.sites {
						before := p.Perf().EarlyExits
						got, err := p.RunOne(context.Background(), inj, NewWorker(nil))
						if err != nil {
							t.Fatal(err)
						}
						if got != wantSites[i] {
							t.Fatalf("ckpt=%d early=%v unnamed site %+v: got %+v, want %+v",
								ckpt, early, inj, got, wantSites[i])
						}
						if early && p.Perf().EarlyExits == before {
							t.Errorf("ckpt=%d early=%v unnamed site %+v simulated its whole window, want an early exit",
								ckpt, early, inj)
						}
					}
				}
			}
		})
	}
}

// TestAudit: a Worker at audit rate 1 re-simulates every early exit of
// an intact cell to the end of its window and finds no violation, on a
// bzip2 core and on a 2-core FaultHound machine, and a rate of one half
// audits some early exits but not all. With one golden end-of-window
// record corrupted, the audited run that reads it fails with an
// AuditError that carries both Results, and counts one violation.
func TestAudit(t *testing.T) {
	cfg := smallConfig()
	p, err := Prepare(mkCore(t, "bzip2", nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := PrepareSystem(mkSystem(t, true), mpConfig())
	if err != nil {
		t.Fatal(err)
	}
	runAudited := func(p *Prepared, rate float64) {
		w := NewWorker(nil)
		w.Audit = rate
		for i, inj := range p.Injections() {
			if _, err := p.RunOne(context.Background(), inj, w); err != nil {
				t.Fatalf("rate %g, injection %d: %v", rate, i, err)
			}
		}
	}
	for _, q := range []*Prepared{machine, p} {
		runAudited(q, 1)
		if pf := q.Perf(); pf.EarlyExits == 0 || pf.Audits != pf.EarlyExits || pf.AuditViolations != 0 {
			t.Fatalf("rate 1, %d cores: %d audits and %d violations over %d early exits, want one audit each and none",
				q.golden.Cores(), pf.Audits, pf.AuditViolations, pf.EarlyExits)
		}
	}
	pf := p.Perf()
	runAudited(p, 0.5)
	if half := p.Perf().Audits - pf.Audits; half == 0 || half >= pf.EarlyExits {
		t.Errorf("rate 0.5: %d audits over %d early exits, want some but not all", half, pf.EarlyExits)
	}

	// A run injected at offset 0 forks from golden itself, so its window
	// ends at a known commit; its flip in an unnamed register exits
	// early at the first digest check.
	inj := unnamedSites(t, "bzip2", 0)[0]
	target := p.golden.Core(0).Committed(0) + cfg.WindowInstr
	er, ok := p.endRecs[target]
	if !ok {
		t.Fatalf("no end record at commit %d", target)
	}
	er.fd++
	p.endRecs[target] = er
	w := NewWorker(nil)
	w.Audit = 1
	before := p.Perf().AuditViolations
	_, err = p.RunOne(context.Background(), inj, w)
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("run on a corrupted end record: error %v, want an *AuditError", err)
	}
	if ae.Early.Injection != inj || ae.Full.Injection != inj || !ae.Early.Detected || ae.Full.Detected {
		t.Errorf("audit error %v: want both Results of %+v, detected only by the early exit", ae, inj)
	}
	if n := p.Perf().AuditViolations - before; n != 1 {
		t.Errorf("%d audit violations counted, want 1", n)
	}
}

// TestForkingArenaParallel drives Prepare's checkpoint-forked,
// early-exiting path from 4 goroutines, each with its own Worker
// (consecutive forks rebasing the worker's arena across different
// checkpoint origins), on an Ocean core and on a 2-core parallel Ocean
// machine, and asserts bit-identity with the serial legacy run. The CI
// race job runs this under -race, pinning that checkpoint machines and
// golden digests are safely shared read-only.
func TestForkingArenaParallel(t *testing.T) {
	fh := core.DefaultConfig()
	for _, cell := range []struct {
		name string
		mk   func() *system.System
		cfg  Config
	}{
		{"ocean", oneCore(mkCore(t, "ocean", &fh)), smallConfig()},
		{"2-core", mkSystem(t, true), mpConfig()},
	} {
		want := runAll(t, prepareLegacy(t, cell.mk, cell.cfg), true)
		p, err := PrepareSystem(cell.mk, cell.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range runConcurrent(t, p, 4) {
			if got != want[i] {
				t.Fatalf("%s injection %d: got %+v, want %+v", cell.name, i, got, want[i])
			}
		}
	}
}

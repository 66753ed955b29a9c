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

// ruleSite is a custom descriptor that must take one of RunOne's
// rules: "early-exit" or "deadlock". Custom descriptors are never
// decided at their injection instant (only drawn ones are), so they
// exercise the simulated path's rules.
type ruleSite struct {
	inj  Injection
	rule string
}

// earlyExits marks descriptors that must exit early.
func earlyExits(injs ...Injection) []ruleSite {
	out := make([]ruleSite, len(injs))
	for i, inj := range injs {
		out[i] = ruleSite{inj, "early-exit"}
	}
	return out
}

// TestCheckpointForkEquivalence sweeps the checkpoint cadence × early
// exit and asserts every Result — outcome, hang flag, detection flag,
// all five background-subtracted detector counters and the detection
// latency — is bit-identical to the legacy path's, for a FaultHound
// and a detector-less baseline cell on bzip2, a FaultHound cell on a
// generated program, whose register usage differs from the kernels',
// and a 2-core parallel Ocean machine with FaultHound on every core.
// With early exit on, preparation decides drawn runs at their
// injection instant, and at Prepare's own setting every rule
// (unnamed, dead, unwritten) must decide at least one of them.
// Each cell also runs custom descriptors that must take a rule:
//   - on the single-core cells, two that flip an unnamed register
//     (unnamedSites) and exit early at the first digest check; they are
//     drawn against one kernel's code, so the machine has none;
//   - on the FaultHound cells, an LSQ flip whose commit probe
//     triggers and is suppressed: it exits early only because the
//     digest leaves probe-only commit checks out and carries the
//     counters across as offsets;
//   - on the baseline and generated cells, a rename flip that hangs
//     and must end at a provable deadlock. The bzip2 FaultHound cell
//     and the 2-core machine hold none: searches of 40,000 and 6,000
//     rename flips found no deadlock there (FaultHound's rollbacks
//     rescue most, and the machine's hangs keep acting).
func TestCheckpointForkEquivalence(t *testing.T) {
	fh := core.DefaultConfig()
	cells := []struct {
		name  string
		mk    func() *system.System
		cfg   Config
		sites []ruleSite
		// minDecided floors the early exits plus decided runs at ckpt=64
		// with early exit: half of today's 17+57=74 (FaultHound), 6+58=64
		// (baseline) and 3+70=73 (generated) of 80 runs, and 16+35=51 of
		// the machine's 60.
		minDecided uint64
	}{
		{"faulthound", oneCore(mkCore(t, "bzip2", &fh)), smallConfig(), append(earlyExits(unnamedSites(t, "bzip2", 200)...),
			ruleSite{Injection{Structure: LSQ, CycleOffset: 114, Bit: 26, SiteSeed: 0x13c6e}, "early-exit"}), 37},
		{"baseline", oneCore(mkCore(t, "bzip2", nil)), smallConfig(), append(earlyExits(unnamedSites(t, "bzip2", 200)...),
			ruleSite{Injection{Structure: RenameTable, CycleOffset: 149, Bit: 27, SiteSeed: 0x45381}, "deadlock"}), 32},
		{"generated", oneCore(mkCore(t, "gen?vlocal=0.5", &fh)), smallConfig(), append(earlyExits(unnamedSites(t, "gen?vlocal=0.5", 200)...),
			ruleSite{Injection{Structure: LSQ, CycleOffset: 177, Bit: 15, SiteSeed: 0x6cc5d}, "early-exit"},
			ruleSite{Injection{Structure: RenameTable, CycleOffset: 149, Bit: 27, SiteSeed: 0x45381}, "deadlock"}), 36},
		{"2-core", mkSystem(t, true), mpConfig(),
			earlyExits(Injection{Structure: LSQ, CycleOffset: 142, Bit: 14, SiteSeed: 0x3b54a}), 25},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			cfg := cell.cfg
			legacy := prepareLegacy(t, cell.mk, cfg)
			want := runAll(t, legacy, false)
			wantSites := make([]Result, len(cell.sites))
			for i, rs := range cell.sites {
				res, err := legacy.RunOne(context.Background(), rs.inj, NewWorker(nil))
				if err != nil {
					t.Fatal(err)
				}
				if rs.rule == "deadlock" && !res.Hung {
					t.Fatalf("site %+v: legacy Result %+v, want a hang", rs.inj, res)
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
					rules := map[rule]int{}
					for _, inj := range p.Injections() {
						if d, ok := p.decisionFor(inj); ok {
							rules[d.rule]++
						}
					}
					t.Logf("ckpt=%d early=%v: of %d runs, %d exited early, %d were decided %v and %d deadlocked",
						ckpt, early, pf.Runs, pf.EarlyExits, pf.Decided, rules, pf.Deadlocks)
					if !early && pf.EarlyExits+pf.Decided+pf.Deadlocks != 0 {
						t.Errorf("ckpt=%d without early exit: %+v, want every run simulated", ckpt, pf)
					}
					// Any acceleration passes, except at Prepare's own
					// setting, ckpt=64 with early exit: there the floors are
					// half of today's counts, so halving either fails, and
					// every rule must decide some drawn run.
					// Forking saves 6656/7421 = 0.897 of the fast-forward
					// cycles of the FaultHound cell's simulated runs.
					var minDecided uint64
					var minSaved float64
					if ckpt == checkpointCadence && early {
						minDecided, minSaved = cell.minDecided, 0.44
						for _, r := range []rule{unnamed, dead, unwritten} {
							if rules[r] == 0 {
								t.Errorf("no drawn run was decided by the %s rule", r)
							}
						}
					}
					// ckpt=1024 exceeds the 500-cycle spread, so no
					// checkpoint fits inside it and every run legitimately
					// forks from the spread start.
					if ckpt != 0 && ckpt < cfg.SpreadCycles && (pf.ForkCyclesSaved == 0 || pf.ForkSavedFrac() < minSaved) {
						t.Errorf("ckpt=%d early=%v: checkpoint forking saved %d of %d fast-forward cycles, want some and a fraction >= %g",
							ckpt, early, pf.ForkCyclesSaved, pf.OffsetCycles, minSaved)
					}
					if n := pf.EarlyExits + pf.Decided; early && (pf.EarlyExits == 0 || pf.Decided == 0 || n < minDecided) {
						t.Errorf("ckpt=%d early=%v: %d early exits and %d decided of %d runs, want some of each and >= %d together",
							ckpt, early, pf.EarlyExits, pf.Decided, pf.Runs, minDecided)
					}

					for i, rs := range cell.sites {
						before := p.Perf()
						got, err := p.RunOne(context.Background(), rs.inj, NewWorker(nil))
						if err != nil {
							t.Fatal(err)
						}
						if got != wantSites[i] {
							t.Fatalf("ckpt=%d early=%v site %+v: got %+v, want %+v",
								ckpt, early, rs.inj, got, wantSites[i])
						}
						after := p.Perf()
						took := map[string]bool{
							"early-exit": after.EarlyExits > before.EarlyExits,
							"deadlock":   after.Deadlocks > before.Deadlocks,
						}[rs.rule]
						if early && !took {
							t.Errorf("ckpt=%d early=%v site %+v simulated its whole window, want it to take the %s rule",
								ckpt, early, rs.inj, rs.rule)
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
		pf := q.Perf()
		if pf.EarlyExits == 0 || pf.Decided == 0 || pf.Audits != pf.EarlyExits+pf.Decided+pf.Deadlocks || pf.AuditViolations != 0 {
			t.Fatalf("rate 1, %d cores: %d audits and %d violations over %d early exits, %d decided runs and %d deadlocks, want one audit each and none",
				q.golden.Cores(), pf.Audits, pf.AuditViolations, pf.EarlyExits, pf.Decided, pf.Deadlocks)
		}
	}
	pf := p.Perf()
	runAudited(p, 0.5)
	if half, all := p.Perf().Audits-pf.Audits, pf.EarlyExits+pf.Decided+pf.Deadlocks; half == 0 || half >= all {
		t.Errorf("rate 0.5: %d audits over %d decisions, want some but not all", half, all)
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

package fault

import (
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/pipeline"
)

// prepareLegacy prepares without replay acceleration: every run
// fast-forwards from the spread start and simulates its full window —
// the path whose results the accelerated paths must reproduce bit for
// bit.
func prepareLegacy(t *testing.T, mk func() *pipeline.Core, cfg Config) *Prepared {
	t.Helper()
	p, err := prepare(mk, cfg, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCheckpointForkEquivalence sweeps the checkpoint cadence × early
// exit and asserts every Result — outcome, hang flag, detection flag,
// and all five background-subtracted detector counters — is
// bit-identical to the legacy path's, for both a FaultHound cell and a
// detector-less baseline cell.
func TestCheckpointForkEquivalence(t *testing.T) {
	cells := []struct {
		name string
		fh   *core.Config
		// minEarly floors the early exits at ckpt=64 with early exit:
		// half of today's 68 (FaultHound) and 42 (baseline) of 80 runs.
		minEarly uint64
	}{
		{"faulthound", func() *core.Config { c := core.DefaultConfig(); return &c }(), 34},
		{"baseline", nil, 21},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			mk := mkCore(t, "bzip2", cell.fh)
			cfg := smallConfig()
			want := runAll(t, prepareLegacy(t, mk, cfg), false)

			for _, ckpt := range []uint64{0, 64, 256, 1024} {
				for _, early := range []bool{false, true} {
					if ckpt == 0 && !early {
						continue // the reference itself
					}
					p, err := prepare(mk, cfg, ckpt, early)
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
					// Any acceleration passes, except at Prepare's own
					// setting, ckpt=64 with early exit: there the floors are
					// half of today's counts, so halving either fails.
					// Forking saves 17792/20269 = 0.878 of the fast-forward
					// cycles on both cells.
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
				}
			}
		})
	}
}

// TestForkingArenaParallel drives Prepare's checkpoint-forked,
// early-exiting path from 4 goroutines, each with its own Worker
// (consecutive forks rebasing the worker's arena across different
// checkpoint origins), and asserts bit-identity with the serial legacy
// run. The CI race job runs this under -race, pinning that checkpoint
// cores and golden digests are safely shared read-only.
func TestForkingArenaParallel(t *testing.T) {
	fh := core.DefaultConfig()
	mk := mkCore(t, "ocean", &fh)

	want := runAll(t, prepareLegacy(t, mk, smallConfig()), true)

	p, err := Prepare(mk, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range runConcurrent(t, p, 4) {
		if got != want[i] {
			t.Fatalf("injection %d: got %+v, want %+v", i, got, want[i])
		}
	}
}

package fault

import (
	"testing"

	"faulthound/internal/core"
)

// legacyConfig is smallConfig with the replay-acceleration knobs off:
// every run fast-forwards from the spread start and simulates its full
// window — the path whose results the accelerated paths must reproduce
// bit for bit.
func legacyConfig() Config {
	cfg := smallConfig()
	cfg.CheckpointCycles = 0
	cfg.EarlyExit = false
	return cfg
}

// TestCheckpointForkEquivalence sweeps CheckpointCycles × EarlyExit and
// asserts every Result — outcome, hang flag, detection flag, and all
// five background-subtracted detector counters — is bit-identical to
// the legacy path's, for both a FaultHound cell and a detector-less
// baseline cell.
func TestCheckpointForkEquivalence(t *testing.T) {
	cells := []struct {
		name string
		fh   *core.Config
	}{
		{"faulthound", func() *core.Config { c := core.DefaultConfig(); return &c }()},
		{"baseline", nil},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			mk := mkCore(t, "bzip2", cell.fh)
			ref, err := Prepare(mk, legacyConfig())
			if err != nil {
				t.Fatal(err)
			}
			want := runAll(t, ref, false)

			for _, ckpt := range []uint64{0, 64, 256, 1024} {
				for _, early := range []bool{false, true} {
					if ckpt == 0 && !early {
						continue // the reference itself
					}
					cfg := legacyConfig()
					cfg.CheckpointCycles = ckpt
					cfg.EarlyExit = early
					p, err := Prepare(mk, cfg)
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
					// ckpt=1024 exceeds the 500-cycle spread, so no
					// checkpoint fits inside it and every run legitimately
					// forks from the spread start.
					if ckpt != 0 && ckpt < cfg.SpreadCycles && pf.ForkCyclesSaved == 0 {
						t.Errorf("ckpt=%d early=%v: checkpoint forking saved no cycles", ckpt, early)
					}
					if early && pf.EarlyExits == 0 {
						t.Errorf("ckpt=%d early=%v: no run took the reconvergence early-exit", ckpt, early)
					}
				}
			}
		})
	}
}

// TestForkingArenaParallel drives the checkpoint-forked, early-exiting
// path from 4 goroutines, each with its own Worker (consecutive forks
// rebasing the worker's arena across different checkpoint origins),
// and asserts bit-identity with the serial legacy run. The CI race job
// runs this under -race, pinning that checkpoint cores and golden
// digests are safely shared read-only.
func TestForkingArenaParallel(t *testing.T) {
	fh := core.DefaultConfig()
	mk := mkCore(t, "ocean", &fh)

	want := runCampaign(t, mk, legacyConfig()).Results

	cfg := legacyConfig()
	cfg.CheckpointCycles = 64
	cfg.EarlyExit = true
	p, err := Prepare(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range runConcurrent(t, p, 4) {
		if got != want[i] {
			t.Fatalf("injection %d: got %+v, want %+v", i, got, want[i])
		}
	}
}

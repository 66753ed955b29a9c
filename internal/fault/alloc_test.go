//go:build !race

// The race detector changes allocation counts and heap sizes, so these
// checks build only without it.

package fault

import (
	"context"
	"runtime"
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/pipeline"
)

// TestSnapshotZeroAlloc: once an arena has held one snapshot of a
// core, every later snapshot rebuilds that storage in place. A
// FaultHound core mid-run, detector tables included, snapshots with no
// allocation at all.
func TestSnapshotZeroAlloc(t *testing.T) {
	fh := core.DefaultConfig()
	for _, bench := range []string{"bzip2", "mcf", "ocean"} {
		c := mkCore(t, bench, &fh)()
		for i := 0; i < 2000; i++ {
			c.Step()
		}
		arena := pipeline.NewSnapshotArena()
		if n := testing.AllocsPerRun(20, func() { c.Snapshot(arena) }); n != 0 {
			t.Errorf("%s: warmed snapshot allocates %.1f times, want 0", bench, n)
		}
	}
}

// TestRunOneAllocs bounds the allocations of one accelerated injection
// on a Worker that has already run the cell once, as in a campaign:
// 3 per run today, under a ceiling of 16.
func TestRunOneAllocs(t *testing.T) {
	fh := core.DefaultConfig()
	p, err := Prepare(mkCore(t, "bzip2", &fh), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	injs := p.Injections()
	w := NewWorker(nil)
	run := func(i int) {
		if _, err := p.RunOne(context.Background(), injs[i%len(injs)], w); err != nil {
			t.Fatal(err)
		}
	}
	for i := range injs {
		run(i) // warms the worker's snapshot arena
	}
	i := 0
	n := testing.AllocsPerRun(len(injs), func() { run(i); i++ })
	t.Logf("RunOne allocates %.1f times per injection", n)
	if n > 16 {
		t.Errorf("RunOne allocates %.1f times per injection, want <= 16", n)
	}
}

// TestApplyInjectionAllocs: once a Worker's candidate lists have
// grown, drawing an in-flight destination register or an LSQ entry
// allocates no more than drawing among all physical registers. The
// injection step is measured on its own: a whole run's allocation count
// moves with how far the flip diverges it (forced LSQ descriptors run
// their full window and grow the core's queues), which would hide the
// candidate lists. The flips land on one forked core that never steps,
// so its sites stay live.
func TestApplyInjectionAllocs(t *testing.T) {
	fh := core.DefaultConfig()
	p, err := Prepare(mkCore(t, "bzip2", &fh), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := p.golden.Snapshot(pipeline.NewSnapshotArena())
	if len(f.InFlightDestRegs(nil)) == 0 || len(f.LSQSites(nil)) == 0 {
		t.Fatal("the golden core holds no in-flight register or LSQ site: the check is vacuous")
	}
	var sc siteScratch
	allocs := func(inj Injection) float64 {
		return testing.AllocsPerRun(50, func() {
			inj.SiteSeed++
			applyInjection(f, inj, &sc)
		})
	}
	regFile := allocs(Injection{Structure: RegFile})
	for _, k := range []struct {
		name string
		inj  Injection
	}{
		{"in-flight register", Injection{Structure: RegFile, InFlight: true}},
		{"LSQ entry", Injection{Structure: LSQ}},
	} {
		if n := allocs(k.inj); n > regFile {
			t.Errorf("drawing an %s allocates %.1f times, drawing any register %.1f", k.name, n, regFile)
		}
	}
}

// TestWarmedCoreRecyclesChunks: a core recycles its own uop and RAT
// checkpoint chunks by age, and its ROB, LSQ, fetch queue and delay
// buffer slide back to the front of their backing arrays instead of
// growing them, so once warmed as Prepare warms the golden core
// (detector warm-up, then the pipeline warm-up) a 20,000-cycle run
// allocates next to nothing: 0 bytes on all three kernels today, under
// a 64 KiB ceiling. A fresh chunk every 256 fetches would cost 4.5-8.7
// MB over the same runs, and re-growing the ROB and LSQ 0.18-0.55 MB. A
// Clone starts with no chunks and empty queues and grows both once, by
// the same rules: about 145 KB, under a 256 KiB ceiling.
func TestWarmedCoreRecyclesChunks(t *testing.T) {
	fh := core.DefaultConfig()
	cfg := DefaultConfig()
	for _, bench := range []string{"bzip2", "mcf", "gamess"} {
		c := mkCore(t, bench, &fh)()
		c.WarmDetector(cfg.DetectorWarmupInstr)
		c.Run(cfg.WarmupCycles)
		clone := c.Clone()
		for _, k := range []struct {
			name    string
			c       *pipeline.Core
			ceiling uint64
		}{{"warmed core", c, 64 << 10}, {"its clone", clone, 256 << 10}} {
			if n := allocatedBy(func() { k.c.Run(20_000) }); n >= k.ceiling {
				t.Errorf("%s: %s allocates %d bytes over 20,000 cycles, want < %d", bench, k.name, n, k.ceiling)
			} else {
				t.Logf("%s: %s allocates %d bytes over 20,000 cycles", bench, k.name, n)
			}
		}
	}
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPreparedRetainedHeap: Prepare freezes each golden checkpoint to
// its difference from the spread-start golden core, so the checkpoint
// ring costs a fraction of the golden state instead of seven deep
// copies of it. The heap a Prepared retains with checkpoints every 64
// cycles must stay within twice what it retains with none (with deep
// copies it was 3.4x on bzip2 and 5.4x on mcf). The program records
// its detector warm-up stream at its second warm-up and keeps it
// (prog.Program.VisitMemOps), so two untimed warm-ups come first: the
// stream is the program's, and neither measurement may count it.
func TestPreparedRetainedHeap(t *testing.T) {
	fh := core.DefaultConfig()
	for _, bench := range []string{"bzip2", "mcf"} {
		mk := mkCore(t, bench, &fh)
		for i := 0; i < 2; i++ {
			mk().WarmDetector(smallConfig().DetectorWarmupInstr)
		}
		retained := func(ckpt uint64) int64 {
			before := liveHeap()
			p, err := prepare(mk, smallConfig(), ckpt, true)
			if err != nil {
				t.Fatal(err)
			}
			n := liveHeap() - before
			runtime.KeepAlive(p)
			return n
		}
		flat, ring := retained(0), retained(checkpointCadence)
		t.Logf("%s: retained %d bytes without checkpoints, %d with", bench, flat, ring)
		if ring > 2*flat {
			t.Errorf("%s: a Prepared with checkpoints retains %d bytes, %.2fx the %d without; want <= 2x",
				bench, ring, float64(ring)/float64(flat), flat)
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full
// collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

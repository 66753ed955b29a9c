//go:build !race

// The race detector changes allocation counts, so these checks build
// only without it.

package fault

import (
	"context"
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
// 11 per run today, so the ceiling of 22 fails when they double.
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
	if n > 22 {
		t.Errorf("RunOne allocates %.1f times per injection, want <= 22", n)
	}
}

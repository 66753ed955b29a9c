package workload

import (
	"path/filepath"
	"sync"
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/detect"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/wgen"
)

// warmN is the detector warm-up length these tests use: long enough
// for every kernel to wrap its loops, short enough for -race.
const warmN = 200_000

// warmed is what a detector warm-up leaves behind: the stream tag over
// every detector interaction, and the detector's counters.
type warmed struct {
	stream uint64
	stats  detect.Stats
}

// warmFaultHound warms a fresh FaultHound core of p.
func warmFaultHound(t *testing.T, p *prog.Program) warmed {
	c, err := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{p}, core.New(core.DefaultConfig()))
	if err != nil {
		t.Error(err)
		return warmed{}
	}
	c.WarmDetector(warmN)
	return warmed{c.CaptureDigest().DetStream, c.DetectorStats()}
}

// TestWarmDetectorReplay: a program's first detector warm-up
// interprets, its second records the load/store stream, and its third
// replays the recording; all three leave a FaultHound detector in the
// same state, on every Table-1 kernel, a micro and two generated
// workloads, and a random program that halts before the warm-up ends.
func TestWarmDetectorReplay(t *testing.T) {
	progs := []*prog.Program{prog.Random(prog.DefaultRandomConfig(), 5)}
	if it := prog.NewInterp(progs[0]); it.Run(warmN) >= warmN || !it.Halted {
		t.Fatal("the random program does not halt before the warm-up ends")
	}
	specs := append(Names(), "micro-chase", "gen?seg=4m", "gen?vlocal=0.5")
	for _, spec := range specs {
		bm, err := Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, bm.Build(prog.DefaultDataBase, 4))
	}
	for i, p := range progs {
		first := warmFaultHound(t, p)
		if first.stats.Checks == 0 {
			t.Fatalf("%s: the warm-up checked nothing", p.Name)
		}
		for call := 2; call <= 3; call++ {
			if got := warmFaultHound(t, p); got != first {
				t.Errorf("%s (program %d): warm-up %d left %+v, the first %+v", p.Name, i, call, got, first)
			}
		}
	}
}

// TestWarmDetectorConcurrent: eight goroutines warming cores of one
// program at once, while its stream is unrecorded, being recorded and
// recorded, all leave their detectors in the same state.
func TestWarmDetectorConcurrent(t *testing.T) {
	bm, err := Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p := bm.Build(prog.DefaultDataBase, 9)
	want := warmFaultHound(t, bm.Build(prog.DefaultDataBase, 9))
	for round := 0; round < 2; round++ {
		var (
			wg  sync.WaitGroup
			got [8]warmed
		)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = warmFaultHound(t, p)
			}(i)
		}
		wg.Wait()
		for i, g := range got {
			if g != want {
				t.Errorf("round %d, goroutine %d: %+v, want %+v", round, i, g, want)
			}
		}
	}
}

// TestProgramsBuiltOnce: Programs returns the same programs for the
// same benchmark, thread count and seed, and new ones for another seed;
// a benchmark built outside this package, or from a replayed trace
// file, is never shared.
func TestProgramsBuiltOnce(t *testing.T) {
	for _, spec := range []string{"bzip2", "micro-chase", "gen?vlocal=0.5"} {
		bm, err := Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, b := Programs(bm, 2, 11), Programs(bm, 2, 11)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: thread %d's program was built twice", spec, i)
			}
		}
		if Programs(bm, 1, 12)[0] == a[0] {
			t.Errorf("%s: another seed returned the same program", spec)
		}
	}
	bm, _ := Get("bzip2")
	own := Benchmark{Name: bm.Name, SegBytes: bm.SegBytes, Build: bm.Build}
	if Programs(own, 1, 11)[0] == Programs(own, 1, 11)[0] {
		t.Error("a benchmark built outside the package was shared")
	}

	// The same replay spec names whatever its file holds when resolved.
	path := filepath.Join(t.TempDir(), "s.fhws")
	spec := "replay?trace=" + path
	var stored []uint64
	for _, val := range []uint64{7, 9} {
		s := &wgen.Stream{Workload: "test", Ops: []wgen.MemOp{{Store: true, Addr: 0x100, Val: val}}}
		if err := s.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		bm, err := Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		p := Programs(bm, 1, 11)[0]
		if p == Programs(bm, 1, 11)[0] {
			t.Errorf("%s: a replayed trace's program was shared", spec)
		}
		p.VisitMemOps(100, func(_ uint64, store bool, _, v uint64) {
			if store {
				stored = append(stored, v)
			}
		})
	}
	if len(stored) < 2 || stored[0] != 7 || stored[len(stored)-1] != 9 {
		t.Errorf("the rewritten trace's program stores %v, want 7s then 9s", stored)
	}
}

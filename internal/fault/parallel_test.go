package fault

import (
	"context"
	"sync"
	"testing"
	"time"

	"faulthound/internal/core"
	"faulthound/internal/detect"
	"faulthound/internal/pbfs"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/system"
	"faulthound/internal/workload"
)

// TestPreparedSharedState proves the Prepare/RunOne split's contract:
// after preparation, the golden core, hash trace, and detector
// background are read-only, so goroutines sharing one Prepared, each
// with its own Worker, must not race (run with -race) and must
// reproduce the serial results.
func TestPreparedSharedState(t *testing.T) {
	p, err := Prepare(mkCore(t, "bzip2", nil), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := runAll(t, p, false)
	for i, got := range runConcurrent(t, p, 8) {
		if got != want[i] {
			t.Fatalf("concurrent result %d differs from serial", i)
		}
	}
}

// runConcurrent runs every injection of p from the given number of
// goroutines, each with its own Worker, striding over the descriptors.
func runConcurrent(t *testing.T, p *Prepared, goroutines int) []Result {
	t.Helper()
	injs := p.Injections()
	out := make([]Result, len(injs))
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := NewWorker(nil)
			for i := g; i < len(injs) && errs[g] == nil; i += goroutines {
				out[i], errs[g] = p.RunOne(context.Background(), injs[i], w)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRunOneCtxPromptCancel checks that cancellation lands inside a
// single injection, not only at the next descriptor boundary: an
// injection whose clone-advance phase would run for ~2^40 cycles must
// abort within the poll interval once the context is cancelled.
func TestRunOneCtxPromptCancel(t *testing.T) {
	p, err := Prepare(mkCore(t, "bzip2", nil), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	long := p.Injections()[0]
	long.CycleOffset = 1 << 40 // days of simulation if not cancelled
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.RunOne(ctx, long, NewWorker(nil))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the run get deep into the injection
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("RunOne = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunOne did not return promptly after cancel")
	}
}

// TestPreparedFPRate sanity-checks the golden fault-free FP
// measurement: a baseline core (no detector) has rate zero, and the
// rate is never negative.
func TestPreparedFPRate(t *testing.T) {
	p, err := Prepare(mkCore(t, "bzip2", nil), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.FPRate() != 0 {
		t.Fatalf("baseline FP rate = %v, want 0", p.FPRate())
	}
}

// TestRunOneArenaMatchesRunOne proves Worker reuse is a pure
// allocation-profile change: one Worker whose arena is rebuilt in place
// run after run must reproduce a fresh Worker's results bit-for-bit,
// including on a detector-equipped campaign (exercising the in-place
// detector clone).
func TestRunOneArenaMatchesRunOne(t *testing.T) {
	fh := core.DefaultConfig()
	for _, det := range []*core.Config{nil, &fh} {
		cfg := smallConfig()
		cfg.Injections = 24
		p, err := Prepare(mkCore(t, "bzip2", det), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := runAll(t, p, false)
		for i, got := range runAll(t, p, true) {
			if got != want[i] {
				t.Fatalf("det=%v inj %d: reused worker = %+v, want %+v", det != nil, i, got, want[i])
			}
		}
	}
}

// TestArenaSurvivesCampaignSwitch: a campaign worker outlives cell
// boundaries. One Worker rotates through five cores on two benchmarks
// and a 2-core machine, and each result must equal a fresh Worker's:
// FaultHound; FaultHound with 8 TCAM entries and no second-level filter
// (a reused TCAM of another geometry, whose nil second-level bank must
// stay nil); the 2-core parallel Ocean with FaultHound on every core
// (the arena grows a second core, then serves one-core machines again);
// the no-cluster FaultHound (PC-indexed tables, an incompatible
// destination); PBFS (another detector type); and no detector. A
// destination that cannot take the next detector is rebuilt, never
// reused.
func TestArenaSurvivesCampaignSwitch(t *testing.T) {
	fh := core.DefaultConfig()
	small := core.DefaultConfig()
	small.Addr.Entries, small.Value.Entries = 8, 8
	small.Addr.SecondLevel, small.Value.SecondLevel = false, false
	noCluster := core.NoClusterNo2LevelConfig()
	oneCoreCell := func(bench string, newDet func() detect.Detector) func() *system.System {
		bm, err := workload.Resolve(bench)
		if err != nil {
			t.Fatal(err)
		}
		prg := bm.Build(prog.DefaultDataBase, 3)
		return oneCore(func() *pipeline.Core {
			var det detect.Detector
			if newDet != nil {
				det = newDet()
			}
			c, err := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{prg}, det)
			if err != nil {
				t.Fatal(err)
			}
			return c
		})
	}
	cells := []struct {
		name string
		mk   func() *system.System
	}{
		{"faulthound", oneCoreCell("bzip2", func() detect.Detector { return core.New(fh) })},
		{"faulthound-8-no2level", oneCoreCell("mcf", func() detect.Detector { return core.New(small) })},
		{"2-core", mkSystem(t, true)},
		{"nocluster", oneCoreCell("bzip2", func() detect.Detector { return core.New(noCluster) })},
		{"pbfs", oneCoreCell("mcf", func() detect.Detector { return pbfs.New(pbfs.Biased()) })},
		{"none", oneCoreCell("bzip2", nil)},
	}
	ps := make([]*Prepared, len(cells))
	for i, c := range cells {
		var err error
		if ps[i], err = PrepareSystem(c.mk, smallConfig()); err != nil {
			t.Fatal(err)
		}
	}
	w := NewWorker(nil)
	for round := 0; round < 3; round++ {
		for i, p := range ps {
			inj := p.Injections()[round]
			got, err := p.RunOne(context.Background(), inj, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.RunOne(context.Background(), inj, NewWorker(nil))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round %d, %s: worker after switch = %+v, want %+v", round, cells[i].name, got, want)
			}
		}
	}
}

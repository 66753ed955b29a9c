package harness

import (
	"reflect"
	"testing"

	"faulthound/internal/fault"
	"faulthound/internal/wgen"
	"faulthound/internal/workload"
)

// recordStream runs bm fault-free on a single-thread baseline core and
// returns its first n committed thread-0 memory ops.
func recordStream(t *testing.T, o Options, bm workload.Benchmark, n int) *wgen.Stream {
	t.Helper()
	c, err := o.BuildCore(bm, Baseline, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := wgen.NewRecorder(bm.Name, o.Seed, n)
	rec.Attach(c)
	for !rec.Full() && !c.AllHalted() && c.Cycle() < 5_000_000 {
		c.Run(4096)
	}
	if !rec.Full() {
		t.Fatalf("recorded only %d of %d ops", len(rec.Stream().Ops), n)
	}
	return rec.Stream()
}

// replayBenchmark wraps a recorded stream as a campaign benchmark, the
// way cmd/fhsim -replay does.
func replayBenchmark(t *testing.T, s *wgen.Stream) workload.Benchmark {
	t.Helper()
	w, err := wgen.FromStream(s)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Benchmark{
		Name:     "replay",
		Suite:    "Generated",
		Paper:    "replayed stream of " + s.Workload,
		SegBytes: w.SegBytes,
		Build:    w.Build,
	}
}

// TestReplayDifferential is the differential-detector regression test:
// one recorded gen stream replayed under faulthound and pbfs. Both
// schemes run fault campaigns against the byte-identical program, so
// their outcome vectors pair injection-for-injection against one
// baseline campaign, and every vector is deterministic.
func TestReplayDifferential(t *testing.T) {
	o := QuickOptions()
	o.Fault.Injections = 40

	genBm, err := workload.Resolve("gen?stride=64,vlocal=0.7,seg=16k,plant=2")
	if err != nil {
		t.Fatal(err)
	}
	bm := replayBenchmark(t, recordStream(t, o, genBm, 500))

	run := func(s Scheme) *fault.Campaign {
		t.Helper()
		camp, err := o.runPaired(o.MakeCore(bm, s), o.Fault)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(camp.Results) != o.Fault.Injections {
			t.Fatalf("%s: %d results, want %d", s, len(camp.Results), o.Fault.Injections)
		}
		return camp
	}
	base := run(Baseline)
	fh := run(FaultHound)
	pb := run(PBFS)

	// One injection-descriptor stream pairs all three campaigns.
	for i := range base.Results {
		if fh.Results[i].Injection != base.Results[i].Injection ||
			pb.Results[i].Injection != base.Results[i].Injection {
			t.Fatalf("injection %d: descriptors differ across schemes", i)
		}
	}

	// The differential signal is reproducible: rerunning a scheme gives
	// the identical outcome vector.
	fh2 := run(FaultHound)
	if !reflect.DeepEqual(fh.Results, fh2.Results) {
		t.Fatal("faulthound outcome vector is not deterministic")
	}

	// Pairing produces sane coverage for both schemes over the shared
	// stream.
	diff := 0
	for i := range fh.Results {
		if fh.Results[i].Outcome != pb.Results[i].Outcome || fh.Results[i].Detected != pb.Results[i].Detected {
			diff++
		}
	}
	t.Logf("faulthound vs pbfs: %d of %d injections differ", diff, len(fh.Results))
	for _, det := range []*fault.Campaign{fh, pb} {
		rep := fault.PairCoverage(base, det)
		if cov := rep.Coverage(); cov < 0 || cov > 1 {
			t.Fatalf("coverage %v outside [0, 1]", cov)
		}
		if rep.SDCBase > len(base.Results) {
			t.Fatalf("SDC base %d exceeds campaign size", rep.SDCBase)
		}
	}
}

// TestGeneratedWorkloadWorkerDeterminism is the acceptance criterion
// for generated workloads in campaigns: the same spec string produces
// bit-identical campaign results for any -workers setting.
func TestGeneratedWorkloadWorkerDeterminism(t *testing.T) {
	o := QuickOptions()
	o.Fault.Injections = 40
	bm, err := workload.Resolve("gen?stride=64,seg=16k,plant=2")
	if err != nil {
		t.Fatal(err)
	}
	mk := o.MakeCore(bm, FaultHound)
	o.Workers = 1
	serial, err := o.runPaired(mk, o.Fault)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 4
	par, err := o.runPaired(mk, o.Fault)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Results, par.Results) {
		t.Fatal("worker count changed generated-workload campaign results")
	}
}

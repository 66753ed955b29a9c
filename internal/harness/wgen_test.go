package harness

import (
	"path/filepath"
	"reflect"
	"testing"

	"faulthound/internal/campaign"
	"faulthound/internal/fault"
	"faulthound/internal/wgen"
	"faulthound/internal/workload"
)

// recordStream runs bm fault-free on a single-thread baseline core and
// writes its first n committed thread-0 memory ops to a stream file
// under the test's temporary directory, returning the file's path.
func recordStream(t *testing.T, o Options, bm workload.Benchmark, n int) string {
	t.Helper()
	c, err := o.BuildCoreSpec(bm, campaign.BaselineSpec, 1)
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
	path := filepath.Join(t.TempDir(), "stream.fhws")
	if err := rec.Stream().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// campaigns runs bench's baseline cell and one cell per scheme through
// RunCampaign and returns their campaigns in that order.
func campaigns(t *testing.T, o Options, bench string, schemes ...Scheme) []*fault.Campaign {
	t.Helper()
	out, err := o.RunCampaign(o.CampaignSpec([]string{bench}, schemes))
	if err != nil {
		t.Fatal(err)
	}
	for i, camp := range out.Campaigns {
		if len(camp.Results) != o.Fault.Injections {
			t.Fatalf("%s: %d results, want %d", out.Cells[i], len(camp.Results), o.Fault.Injections)
		}
	}
	return out.Campaigns
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
	replay := "replay?trace=" + recordStream(t, o, genBm, 500)
	camps := campaigns(t, o, replay, FaultHound, PBFS)
	base, fh, pb := camps[0], camps[1], camps[2]

	// One injection-descriptor stream pairs all three campaigns.
	for i := range base.Results {
		if fh.Results[i].Injection != base.Results[i].Injection ||
			pb.Results[i].Injection != base.Results[i].Injection {
			t.Fatalf("injection %d: descriptors differ across schemes", i)
		}
	}

	// The differential signal is reproducible: rerunning a scheme gives
	// the identical outcome vector.
	fh2 := campaigns(t, o, replay, FaultHound)[1]
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
	const bench = "gen?stride=64,seg=16k,plant=2"
	o.Workers = 1
	serial := campaigns(t, o, bench, FaultHound)
	o.Workers = 4
	par := campaigns(t, o, bench, FaultHound)
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Results, par[i].Results) {
			t.Fatalf("worker count changed generated-workload campaign %d's results", i)
		}
	}
}

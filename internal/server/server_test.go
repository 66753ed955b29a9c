package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/fault"
	"faulthound/internal/harness"
)

// testConfig returns a server config over a fresh root with the quick
// harness factory and a pinned git commit (so hashes are stable across
// roots within one test).
func testConfig(t testing.TB) Config {
	t.Helper()
	o := harness.QuickOptions()
	return Config{
		Root:      t.TempDir(),
		Factory:   o.CampaignFactory(),
		BaseFault: o.Fault,
		GitCommit: "test-commit",
	}
}

// testSpec is a deliberately messy submission: explicit baseline,
// duplicate scheme, a RunID and worker count — everything
// normalization must erase — over a small two-cell campaign.
func testSpec(injections int) campaign.Spec {
	o := harness.QuickOptions()
	f := o.Fault
	f.Injections = injections
	return campaign.Spec{
		RunID:      "client-chosen",
		Benchmarks: []string{"bzip2"},
		Schemes:    []string{"baseline", "faulthound", "faulthound"},
		Workers:    2,
		Fault:      f,
	}
}

func waitDone(t *testing.T, j *job, timeout time.Duration) JobStatus {
	t.Helper()
	select {
	case <-j.doneCh:
	case <-time.After(timeout):
		t.Fatalf("job %s did not finish within %s (state %s)", j.id, timeout, j.status().State)
	}
	return j.status()
}

// TestServerEndToEnd is the acceptance scenario: two identical specs
// submitted concurrently over HTTP — one executes, the other is served
// by the spec-hash cache; the bundle equals a cold run byte for byte;
// /metrics reports exactly one executed job and one cache hit.
func TestServerEndToEnd(t *testing.T) {
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := context.Background()

	spec := testSpec(12)
	var (
		wg  sync.WaitGroup
		sts [2]*JobStatus
		ers [2]error
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sts[i], ers[i] = cl.Submit(ctx, spec)
		}(i)
	}
	wg.Wait()
	for i, err := range ers {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if sts[0].ID != sts[1].ID {
		t.Fatalf("identical specs got different job IDs: %s vs %s", sts[0].ID, sts[1].ID)
	}
	if sts[0].CacheHit == sts[1].CacheHit {
		t.Fatalf("want exactly one cache hit, got %v and %v", sts[0].CacheHit, sts[1].CacheHit)
	}
	id := sts[0].ID

	// Watch the event stream to completion.
	var events []Event
	final, err := cl.Watch(ctx, id, func(ev Event) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("final state %s (error %q)", final.State, final.Error)
	}
	if final.Total != 24 || final.Done != 24 {
		t.Fatalf("final progress %d/%d, want 24/24", final.Done, final.Total)
	}
	if len(events) == 0 {
		t.Fatal("event stream was empty")
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Fatalf("last streamed event state %s, want done", last.State)
	}
	prev := -1
	for _, ev := range events {
		if ev.Done < prev {
			t.Fatalf("progress went backwards: %d after %d", ev.Done, prev)
		}
		prev = ev.Done
	}

	// A third submission is now a pure result-cache hit.
	st3, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st3.CacheHit || st3.State != StateDone {
		t.Fatalf("post-completion submit: cache_hit=%v state=%s", st3.CacheHit, st3.State)
	}

	// The served bundle equals a cold run on a fresh server, byte for
	// byte (results.csv and summary.json are deterministic artifacts).
	gotCSV, err := cl.BundleFile(ctx, id, campaign.ResultsName)
	if err != nil {
		t.Fatal(err)
	}
	gotSum, err := cl.BundleFile(ctx, id, campaign.SummaryName)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotCSV) == 0 {
		t.Fatal("empty results.csv")
	}

	s2, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(context.Background())
	s2.Start()
	j2, hit, err := s2.Submit(spec)
	if err != nil || hit {
		t.Fatalf("cold submit: hit=%v err=%v", hit, err)
	}
	waitDone(t, j2, 2*time.Minute)
	coldCSV := readFile(t, j2.dir+"/"+campaign.ResultsName)
	coldSum := readFile(t, j2.dir+"/"+campaign.SummaryName)
	if string(gotCSV) != string(coldCSV) {
		t.Fatal("cached results.csv differs from a cold run")
	}
	if string(gotSum) != string(coldSum) {
		t.Fatal("cached summary.json differs from a cold run")
	}

	// Metrics: exactly one executed job, exactly two cache hits (the
	// concurrent duplicate plus the post-completion resubmit).
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	for _, want := range []string{
		"fhserved_jobs_done_total 1",
		"fhserved_cache_hits_total 2",
		"fhserved_jobs_submitted_total 3",
		"fhserved_jobs_failed_total 0",
		`fhserved_bench_fp_rate{bench="bzip2",scheme="faulthound"}`,
		"# TYPE fhserved_injections_per_second gauge",
		// Instrumentation layer: per-injection histograms and labeled
		// outcome counters, plus prepared-cache tallies at scrape time.
		"# TYPE fhserved_injection_duration_seconds histogram",
		`fhserved_injection_duration_seconds_bucket{bench="bzip2",le="+Inf",scheme="faulthound"}`,
		`fhserved_detection_latency_cycles_bucket{bench="bzip2",le="+Inf",scheme="faulthound"}`,
		`fhserved_injection_outcomes_total{bench="bzip2",outcome="masked",scheme="faulthound"}`,
		"fhserved_prepared_cache_misses_total 2",
		"fhserved_injections_inflight 0",
		"# TYPE fhserved_job_queue_wait_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServerDrainResume is the SIGTERM half of the acceptance
// scenario: drain mid-campaign journals the in-flight job, a restarted
// server requeues and resumes it, and the final bundle is
// byte-identical to an uninterrupted run. The restart rebuilds the
// job's spec from status.json; its preparations must still fork from
// golden checkpoints and exit early at reconvergence.
func TestServerDrainResume(t *testing.T) {
	spec := testSpec(40)

	// Uninterrupted reference run on its own root.
	refCfg := testConfig(t)
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	refJob, _, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, refJob, 2*time.Minute)
	ref.Drain(context.Background())
	refCSV := readFile(t, refJob.dir+"/"+campaign.ResultsName)
	refSum := readFile(t, refJob.dir+"/"+campaign.SummaryName)

	// Interrupted run: the runner holds the engine at its 8th result
	// until the drain cancels the run. Work.Result calls Progress under
	// its lock, so the journal stops at 8 results plus at most one
	// in-flight result per other worker, and every cell keeps most of
	// its runs for the resume.
	cfg := testConfig(t)
	held := make(chan struct{})
	cfg.Runner = func(ctx context.Context, eng *campaign.Engine, dir string, resume bool) (*campaign.Outcome, error) {
		progress := eng.Progress
		eng.Progress = func(done, total int) {
			progress(done, total)
			if done == 8 {
				close(held)
				<-ctx.Done()
			}
		}
		return eng.Run(ctx, dir, resume)
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	j1, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(2 * time.Minute):
		t.Fatal("no progress before deadline")
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := j1.status(); st.State != StateInterrupted {
		t.Fatalf("post-drain state %s, want interrupted", st.State)
	}
	if got := s1.Unfinished(); len(got) != 1 || got[0] != j1.id {
		t.Fatalf("unfinished = %v, want [%s]", got, j1.id)
	}

	// Restart over the same root, with a cache of its own: the job
	// requeues as a resume and completes without resubmission.
	cfg2 := cfg
	cfg2.Runner = nil
	cfg2.Prepared = fault.NewPreparedCache()
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	j2 := s2.Job(j1.id)
	if j2 == nil {
		t.Fatal("restarted server lost the interrupted job")
	}
	if !j2.resume {
		t.Fatal("requeued job is not marked for resume")
	}
	s2.Start()
	st := waitDone(t, j2, 2*time.Minute)
	s2.Drain(context.Background())
	if st.State != StateDone {
		t.Fatalf("resumed job state %s (error %q)", st.State, st.Error)
	}
	if st.Resumed == 0 {
		t.Fatal("resumed job replayed no journal records")
	}

	if string(readFile(t, j2.dir+"/"+campaign.ResultsName)) != string(refCSV) {
		t.Fatal("drained-and-resumed results.csv differs from the uninterrupted run")
	}
	if string(readFile(t, j2.dir+"/"+campaign.SummaryName)) != string(refSum) {
		t.Fatal("drained-and-resumed summary.json differs from the uninterrupted run")
	}

	keys := cfg2.Prepared.Keys()
	if len(keys) == 0 {
		t.Fatal("the resumed job prepared no cell")
	}
	for _, k := range keys {
		p, err := cfg2.Prepared.Get(k, nil) // present: Get returns the cached entry
		if err != nil {
			t.Fatal(err)
		}
		if pf := p.Perf(); pf.EarlyExits == 0 || pf.ForkCyclesSaved == 0 {
			t.Errorf("%s/%s: the resumed job's %d runs took %d early exits and saved %d fork cycles, want both > 0",
				k.Bench, k.Scheme, pf.Runs, pf.EarlyExits, pf.ForkCyclesSaved)
		}
	}
}

// TestServerRejections covers submit-time validation and the bounded
// queue: unknown benchmarks and empty specs are 400s, an overflowing
// queue is a structured 429 with a Retry-After hint, and bundle
// requests outside the whitelist are 404s.
func TestServerRejections(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Not started: jobs stay queued, so the second distinct spec
	// overflows the depth-1 queue.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := context.Background()

	if _, err := cl.Submit(ctx, campaign.Spec{Benchmarks: []string{"no-such-bench"}}); err == nil {
		t.Fatal("unknown benchmark accepted")
	} else if ae, ok := err.(*apiError); !ok || ae.Code != http.StatusBadRequest {
		t.Fatalf("unknown benchmark: %v, want 400", err)
	}
	if _, err := cl.Submit(ctx, campaign.Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}

	first := testSpec(8)
	if _, err := cl.Submit(ctx, first); err != nil {
		t.Fatal(err)
	}
	second := testSpec(8)
	second.Fault.Seed++
	if _, err := cl.Submit(ctx, second); err == nil {
		t.Fatal("queue overflow accepted")
	} else if ae, ok := err.(*apiError); !ok || ae.Code != http.StatusTooManyRequests {
		t.Fatalf("queue overflow: %v, want 429", err)
	} else if ae.RetryAfter <= 0 {
		t.Fatalf("queue overflow 429 carries no Retry-After hint: %+v", ae)
	}
	// Resubmitting the queued spec is a dedup hit, not an overflow.
	if st, err := cl.Submit(ctx, first); err != nil || !st.CacheHit {
		t.Fatalf("dedup against queued job: st=%+v err=%v", st, err)
	}

	if _, err := cl.Status(ctx, "does-not-exist"); err == nil {
		t.Fatal("unknown job id returned a status")
	}
	id := s.Jobs()[0].ID
	if _, err := cl.BundleFile(ctx, id, StatusName); err == nil {
		t.Fatal("bundle endpoint served a non-bundle file")
	}
}

// TestSchemeSpecRejection: an unknown or malformed scheme spec is a
// structured 400 carrying the registry's scheme list, and /v1/schemes
// serves the registry metadata.
func TestSchemeSpecRejection(t *testing.T) {
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, bad := range []string{"bogus", "faulthound?tcam=zap"} {
		spec := testSpec(4)
		spec.Schemes = []string{bad}
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("scheme %q: status %d, want 400", bad, resp.StatusCode)
		}
		var got struct {
			Error        string   `json:"error"`
			KnownSchemes []string `json:"known_schemes"`
		}
		if err := json.Unmarshal([]byte(readAll(t, resp)), &got); err != nil {
			t.Fatal(err)
		}
		if got.Error == "" {
			t.Errorf("scheme %q: 400 body has no error", bad)
		}
		found := false
		for _, n := range got.KnownSchemes {
			if n == "faulthound" {
				found = true
			}
		}
		if !found {
			t.Errorf("scheme %q: 400 body known_schemes = %v, want the registry list", bad, got.KnownSchemes)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/schemes")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/schemes status %d", resp.StatusCode)
	}
	var meta struct {
		Schemes []struct {
			Name   string `json:"name"`
			Params []struct {
				Name string `json:"name"`
				Kind string `json:"kind"`
			} `json:"params"`
		} `json:"schemes"`
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &meta); err != nil {
		t.Fatal(err)
	}
	var fh bool
	for _, sc := range meta.Schemes {
		if sc.Name == "faulthound" {
			fh = true
			var tcam bool
			for _, p := range sc.Params {
				if p.Name == "tcam" && p.Kind == "int" {
					tcam = true
				}
			}
			if !tcam {
				t.Errorf("/v1/schemes: faulthound has no int tcam param: %+v", sc.Params)
			}
		}
	}
	if !fh {
		t.Error("/v1/schemes does not list faulthound")
	}
}

// TestWorkloadSpecRejection: an unknown or malformed workload spec is
// a structured 400 carrying the resolvable workload list (a different
// shape from the scheme 400 — clients correct the right field), and
// /v1/workloads serves the catalogue with generator parameters.
func TestWorkloadSpecRejection(t *testing.T) {
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, bad := range []string{"bogus", "gen?stride=zap", "gen?bogus=1"} {
		spec := testSpec(4)
		spec.Benchmarks = []string{"bzip2", bad}
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("workload %q: status %d, want 400", bad, resp.StatusCode)
		}
		var got struct {
			Error          string   `json:"error"`
			KnownSchemes   []string `json:"known_schemes"`
			KnownWorkloads []string `json:"known_workloads"`
		}
		if err := json.Unmarshal([]byte(readAll(t, resp)), &got); err != nil {
			t.Fatal(err)
		}
		if got.Error == "" {
			t.Errorf("workload %q: 400 body has no error", bad)
		}
		if got.KnownSchemes != nil {
			t.Errorf("workload %q: 400 body carries known_schemes; workload errors must use known_workloads", bad)
		}
		var bzip2, gen bool
		for _, n := range got.KnownWorkloads {
			bzip2 = bzip2 || n == "bzip2"
			gen = gen || n == "gen"
		}
		if !bzip2 || !gen {
			t.Errorf("workload %q: 400 body known_workloads = %v, want benchmarks and generators", bad, got.KnownWorkloads)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/workloads status %d", resp.StatusCode)
	}
	var meta struct {
		Workloads []struct {
			Name   string `json:"name"`
			Params []struct {
				Name string `json:"name"`
				Kind string `json:"kind"`
			} `json:"params"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &meta); err != nil {
		t.Fatal(err)
	}
	var bzip2, gen bool
	for _, w := range meta.Workloads {
		switch w.Name {
		case "bzip2":
			bzip2 = true
			if len(w.Params) != 0 {
				t.Errorf("/v1/workloads: fixed benchmark bzip2 has params: %+v", w.Params)
			}
		case "gen":
			gen = true
			var stride, seg bool
			for _, p := range w.Params {
				stride = stride || (p.Name == "stride" && p.Kind == "int")
				seg = seg || (p.Name == "seg" && p.Kind == "size")
			}
			if !stride || !seg {
				t.Errorf("/v1/workloads: gen params missing stride/seg: %+v", w.Params)
			}
		}
	}
	if !bzip2 || !gen {
		t.Errorf("/v1/workloads lists neither bzip2 nor gen: %+v", meta.Workloads)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

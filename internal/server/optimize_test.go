package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/contract"
	"faulthound/internal/harness"
	"faulthound/internal/scheme"
	"faulthound/internal/search"
)

// optimizeConfig is testConfig plus what optimize jobs need: a timing
// runner for the overhead objectives and a small injection count.
func optimizeConfig(t testing.TB) Config {
	t.Helper()
	o := harness.QuickOptions()
	o.Fault.Injections = 48
	cfg := testConfig(t)
	cfg.BaseFault = o.Fault
	cfg.Timing = o.TimingRunner()
	return cfg
}

// smokeRequest is a small seeded search over one cheap generated
// workload (the request scripts/smoke_optimize.sh sends).
func smokeRequest() OptimizeRequest {
	return OptimizeRequest{
		Benchmarks: []string{"gen?seg=16k"},
		Schemes:    []string{"faulthound?tcam=8"},
		Budget:     3,
		Seed:       7,
		Params:     []string{"tcam"},
	}
}

// paretoBytes reads a finished optimize job's three artifacts.
func paretoBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, f := range paretoFiles {
		out[f] = readFile(t, filepath.Join(dir, f))
	}
	return out
}

// TestOptimizeJobLifecycle drives POST /v1/optimize through the job
// machinery: 202, an event stream to done, a bundle whose pareto.json
// equals search.Run on the same config, cache hits for identical
// resubmits while queued or running and after done (one executed job),
// a 409 from the report route, and a restart that rebuilds the job.
// Then a second server is drained mid-search, and its restart finishes
// the job with pareto files byte-identical to the uninterrupted run.
func TestOptimizeJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real injections")
	}
	cfg := optimizeConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := context.Background()
	req := smokeRequest()

	post := func() (int, JobStatus) {
		t.Helper()
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}

	code, st := post()
	if code != http.StatusAccepted || st.CacheHit {
		t.Fatalf("first submit: HTTP %d, %+v; want 202 without cache_hit", code, st)
	}
	if st.RunID != "opt-"+st.ID[:12] {
		t.Errorf("run ID %q, want opt-<hash prefix>", st.RunID)
	}
	if want := (req.Budget + 1) * 1 * cfg.BaseFault.Injections; st.Total != want {
		t.Errorf("total %d, want the admission worst case %d", st.Total, want)
	}
	if code, dup := post(); code != http.StatusOK || !dup.CacheHit || dup.ID != st.ID {
		t.Fatalf("resubmit before done: HTTP %d, %+v; want 200 cache_hit on %s", code, dup, st.ID)
	}

	var events []Event
	final, err := cl.Watch(ctx, st.ID, func(ev Event) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Done != final.Total {
		t.Fatalf("final status %+v, want done with done == total", final)
	}
	progress, prev := 0, -1
	for _, ev := range events {
		if ev.Done < prev {
			t.Fatalf("progress went backwards: %d after %d", ev.Done, prev)
		}
		prev = ev.Done
		if ev.Type == "progress" {
			progress++
		}
	}
	if progress == 0 || events[len(events)-1].State != StateDone {
		t.Fatalf("event stream: %d progress events, last %+v", progress, events[len(events)-1])
	}
	if code, again := post(); code != http.StatusOK || !again.CacheHit || again.State != StateDone {
		t.Fatalf("resubmit after done: HTTP %d, %+v", code, again)
	}

	// The bundle serves the search's artifacts; pareto.json is exactly
	// what search.Run writes for the same normalized request.
	got, err := cl.BundleFile(ctx, st.ID, search.JSONName)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := s.normalizeOptimize(req)
	if err != nil {
		t.Fatal(err)
	}
	base, err := scheme.Parse(norm.Schemes[0])
	if err != nil {
		t.Fatal(err)
	}
	weights, err := search.ParseWeights(norm.Weights)
	if err != nil {
		t.Fatal(err)
	}
	fc := cfg.BaseFault
	fc.Injections = norm.Injections
	local := search.Config{
		Seed:    norm.Seed,
		Budget:  norm.Budget,
		Weights: weights,
		Base:    []scheme.Spec{base},
		Params:  norm.Params,
		Eval: search.CampaignEval(&campaign.Evaluator{
			Factory: cfg.Factory, Fault: fc, Timing: cfg.Timing,
		}, norm.Benchmarks),
	}
	res, err := search.Run(ctx, local)
	if err != nil {
		t.Fatal(err)
	}
	want, err := search.NewReport(st.RunID, norm.Benchmarks, local, res).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("bundle pareto.json differs from search.Run:\n got: %s\nwant: %s", got, want)
	}
	dir := s.Job(st.ID).dir
	if err := contract.ValidateParetoDir(dir); err != nil {
		t.Errorf("job artifacts: %v", err)
	}

	// Client.Optimize attaches to the finished job.
	rep, err := cl.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunID != st.RunID || len(rep.Points) != len(res.Points) {
		t.Errorf("Client.Optimize: run %s with %d points, want %s with %d", rep.RunID, len(rep.Points), st.RunID, len(res.Points))
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	for _, want := range []string{"fhserved_jobs_done_total 1", "fhserved_cache_hits_total 3"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("report route on an optimize job: HTTP %d, want 409", resp.StatusCode)
	}

	// A restart rebuilds the finished job from its status file.
	ts.Close()
	s.Drain(ctx)
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(ctx)
	if j := s2.Job(st.ID); j == nil || j.opt == nil || j.status().State != StateDone {
		t.Fatalf("restart did not rebuild the done optimize job: %+v", j)
	}
	ref := paretoBytes(t, dir)

	// Drain mid-search, then restart over the same root.
	dcfg := optimizeConfig(t)
	d1, err := New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	d1.Start()
	j1, _, err := d1.SubmitOptimize(req)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := j1.subscribe()
	deadline := time.After(2 * time.Minute)
	for progressed := false; !progressed; {
		select {
		case ev := <-ch:
			if ev.State == StateDone {
				t.Fatal("search finished before the drain could interrupt it")
			}
			progressed = ev.Type == "progress" && ev.Done >= 8
		case <-deadline:
			t.Fatal("no progress before deadline")
		}
	}
	cancel()
	if err := d1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := j1.status(); st.State != StateInterrupted {
		t.Fatalf("post-drain state %s, want interrupted", st.State)
	}
	d2, err := New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	j2 := d2.Job(j1.id)
	if j2 == nil || j2.resume {
		t.Fatalf("restart: job %+v, want a fresh rerun (no manifest to resume)", j2)
	}
	d2.Start()
	if st := waitDone(t, j2, 2*time.Minute); st.State != StateDone {
		t.Fatalf("rerun state %s (error %q)", st.State, st.Error)
	}
	d2.Drain(ctx)
	for f, b := range paretoBytes(t, j2.dir) {
		if !bytes.Equal(b, ref[f]) {
			t.Errorf("%s after drain and restart differs from the uninterrupted run", f)
		}
	}
}

// TestOptimizeRequestValidation covers submit-time handling without
// running a search: bad requests are 400s (unknown workloads with the
// structured known_workloads body campaigns get), params are validated
// and canonicalized so reordered lists are one job, and a data root
// left by the old request-hash cache does not break the rescan.
func TestOptimizeRequestValidation(t *testing.T) {
	cfg := optimizeConfig(t)
	stale := filepath.Join(cfg.Root, "optimize", "0123456789abcdef01234567")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, search.JSONName), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("rescan invented %d jobs from an old optimize cache", len(jobs))
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	ctx := context.Background()

	for name, bad := range map[string]OptimizeRequest{
		"no benchmarks":    {Schemes: []string{"faulthound"}},
		"unknown scheme":   {Benchmarks: []string{"gen?seg=16k"}, Schemes: []string{"nope"}},
		"baseline only":    {Benchmarks: []string{"gen?seg=16k"}, Schemes: []string{"baseline"}},
		"unknown workload": {Benchmarks: []string{"nope"}, Schemes: []string{"faulthound"}},
		"bad weights":      {Benchmarks: []string{"gen?seg=16k"}, Schemes: []string{"faulthound"}, Weights: "sdc=1"},
		"unknown param":    {Benchmarks: []string{"gen?seg=16k"}, Schemes: []string{"faulthound"}, Params: []string{"tcma"}},
	} {
		if _, err := cl.Optimize(ctx, bad); !isHTTPStatus(err, http.StatusBadRequest) {
			t.Errorf("%s: err = %v, want 400", name, err)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		strings.NewReader(`{"benchmarks":["nope"],"schemes":["faulthound"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error          string   `json:"error"`
		KnownWorkloads []string `json:"known_workloads"`
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || body.Error == "" || len(body.KnownWorkloads) == 0 {
		t.Errorf("unknown workload: HTTP %d, body %+v; want a structured 400 with known_workloads", resp.StatusCode, body)
	}

	a, err := s.optimizeJob(OptimizeRequest{Benchmarks: []string{"bzip2"}, Schemes: []string{"faulthound"},
		Params: []string{"delay", "tcam"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.optimizeJob(OptimizeRequest{Benchmarks: []string{"bzip2"}, Schemes: []string{"faulthound"},
		Params: []string{"tcam", " ", "delay", "tcam"}})
	if err != nil {
		t.Fatal(err)
	}
	if a.id != b.id {
		t.Errorf("reordered params hashed to different jobs: %s vs %s", a.id, b.id)
	}
	if got := strings.Join(a.opt.Params, ","); got != "delay,tcam" {
		t.Errorf("canonical params = %q, want delay,tcam", got)
	}
}

// TestOptimizeUnavailable checks the endpoint answers 503 when the
// daemon has no timing runner (a worker-role daemon, or a config that
// never wired one).
func TestOptimizeUnavailable(t *testing.T) {
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		bytes.NewReader([]byte(`{"benchmarks":["bzip2"],"schemes":["faulthound"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
}

// TestOptimizeRescanWithoutTiming: a daemon restarted without a timing
// runner over an unfinished optimize job fails that job with an error
// instead of calling a nil TimingRunner.
func TestOptimizeRescanWithoutTiming(t *testing.T) {
	cfg := optimizeConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := s.SubmitOptimize(smokeRequest()) // never started: stays queued
	if err != nil {
		t.Fatal(err)
	}
	s.Drain(context.Background())

	cfg.Timing = nil
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(context.Background())
	j2 := s2.Job(j.id)
	if j2 == nil || j2.opt == nil {
		t.Fatalf("restart did not requeue the optimize job: %+v", j2)
	}
	s2.Start()
	if st := waitDone(t, j2, time.Minute); st.State != StateFailed || !strings.Contains(st.Error, "timing runner") {
		t.Fatalf("job ended %s (error %q), want failed for want of a timing runner", st.State, st.Error)
	}
}

// isHTTPStatus reports whether err is an apiError with the given code.
func isHTTPStatus(err error, code int) bool {
	ae, ok := err.(*apiError)
	return ok && ae.Code == code
}

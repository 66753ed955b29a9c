package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/contract"
	"faulthound/internal/fault"
	"faulthound/internal/harness"
	"faulthound/internal/obs/metrics"
	"faulthound/internal/report"
)

// newTestWorker builds a worker over the quick harness factory with
// its own prepared cache.
func newTestWorker(t *testing.T, o harness.Options, slots int) *Worker {
	t.Helper()
	return &Worker{Factory: o.CampaignFactory(), Cache: fault.NewPreparedCache(), Slots: slots}
}

// register adds a worker's httptest server to a registry under id.
func register(reg *Registry, w *Worker, id, url string) {
	reg.Register(w.Status(id, url))
}

// readBundleFiles loads the byte-compared artifacts of a bundle.
func readBundleFiles(t *testing.T, dir string) (results, summary []byte) {
	t.Helper()
	results, err := os.ReadFile(filepath.Join(dir, campaign.ResultsName))
	if err != nil {
		t.Fatal(err)
	}
	summary, err = os.ReadFile(filepath.Join(dir, campaign.SummaryName))
	if err != nil {
		t.Fatal(err)
	}
	return results, summary
}

// TestShardedReference1kByteIdentical is the acceptance scenario for
// the distributed fabric: the committed reference-1k campaign runs
// sharded across two in-process workers, one worker is killed
// mid-campaign (its ranges must be re-leased to the survivor), and the
// merged bundle's results.csv and summary.json must be byte-identical
// to the committed single-node bundle. Its quality report must equal
// the committed one up to provenance, which shows the detection
// latencies cross the shard stream, the merge and the re-lease. The
// shards rebuild the fault config from JSON, and must still fork from
// golden checkpoints and exit early at reconvergence.
func TestShardedReference1kByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full reference campaign; skipped with -short")
	}
	refDir := filepath.Join("..", "..", "results", "campaigns", "reference-1k")
	man, err := campaign.ReadManifest(refDir)
	if err != nil {
		t.Fatalf("reading committed reference bundle: %v", err)
	}
	opts := harness.DefaultOptions()

	w1 := newTestWorker(t, opts, 2)
	w2 := newTestWorker(t, opts, 2)
	ts1 := httptest.NewServer(w1.Handler())
	ts2 := httptest.NewServer(w2.Handler())
	defer ts2.Close()

	reg := NewRegistry(nil)
	reg.ExpireAfter = time.Hour // no heartbeats in this test; death is detected via the stream
	register(reg, w1, "w1", ts1.URL)
	register(reg, w2, "w2", ts2.URL)

	coord := &Coordinator{Registry: reg, RangeSize: 32}
	coord.RegisterMetrics(metrics.NewRegistry())

	// Kill w1 (connection reset, no goodbye) once a tenth of the
	// campaign has merged. ts1.Close waits for its in-flight handlers,
	// which notice the dead connections and bail out mid-injection.
	var kill sync.Once
	killed := make(chan struct{})
	eng := &campaign.Engine{
		Spec:    man.Spec,
		Factory: opts.CampaignFactory(),
		Progress: func(done, total int) {
			if done >= total/10 {
				kill.Do(func() {
					ts1.CloseClientConnections()
					ts1.Close()
					close(killed)
				})
			}
		},
		Warnf: func(format string, args ...any) { t.Logf(format, args...) },
	}

	dir := t.TempDir()
	out, err := coord.RunCampaign(context.Background(), eng, dir, false)
	if err != nil {
		t.Fatalf("sharded campaign failed: %v", err)
	}
	select {
	case <-killed:
	default:
		t.Fatal("worker w1 was never killed; the test did not exercise re-leasing")
	}
	if got := coord.mExpired.Get(); got < 1 {
		t.Fatalf("fh_cluster_leases_expired_total = %v, want >= 1 (w1's leases must expire)", got)
	}
	if out.Summary == nil {
		t.Fatal("outcome has no summary")
	}

	gotResults, gotSummary := readBundleFiles(t, dir)
	wantResults, wantSummary := readBundleFiles(t, refDir)
	if !bytes.Equal(gotResults, wantResults) {
		t.Errorf("sharded results.csv differs from the committed reference bundle")
	}
	if !bytes.Equal(gotSummary, wantSummary) {
		t.Errorf("sharded summary.json differs from the committed reference bundle")
	}

	q, err := report.Generate(dir, report.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(refDir, contract.ReportDirName, contract.QualityJSONName))
	if err != nil {
		t.Fatal(err)
	}
	var want report.Quality
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	q.Generator, q.Source = "", report.Source{}
	want.Generator, want.Source = "", report.Source{}
	gotQ, _ := campaign.MarshalJSON(q)
	wantQ, _ := campaign.MarshalJSON(&want)
	if !bytes.Equal(gotQ, wantQ) {
		t.Errorf("sharded quality report differs from the committed one:\n--- got ---\n%s\n--- want ---\n%s", gotQ, wantQ)
	}

	var pf fault.Perf
	for _, w := range []*Worker{w1, w2} {
		for _, k := range w.Cache.Keys() {
			p, err := w.Cache.Get(k, nil) // present: Get returns the cached entry
			if err != nil {
				t.Fatal(err)
			}
			pf = pf.Add(p.Perf())
		}
	}
	if pf.EarlyExits == 0 || pf.ForkCyclesSaved == 0 {
		t.Errorf("the workers' %d runs took %d early exits and saved %d fork cycles, want both > 0",
			pf.Runs, pf.EarlyExits, pf.ForkCyclesSaved)
	}
}

// TestLeaseAffinity: in a clean two-worker run of four cells, each
// cell split into several leases, a worker keeps to the cells it
// already holds, so the two workers together prepare fewer than twice
// per cell. Routing every lease to the next free worker regardless of
// cell prepared every cell on both.
func TestLeaseAffinity(t *testing.T) {
	opts := harness.QuickOptions()
	spec := campaign.Spec{
		RunID:      "affinity",
		Benchmarks: []string{"bzip2", "mcf"},
		Schemes:    []string{"faulthound"},
		Fault:      opts.Fault,
	}
	spec.Fault.Injections = 40
	cells := len(spec.Cells())

	reg := NewRegistry(nil)
	reg.ExpireAfter = time.Hour
	var workers []*Worker
	for _, id := range []string{"w1", "w2"} {
		w := newTestWorker(t, opts, 1)
		ts := httptest.NewServer(w.Handler())
		defer ts.Close()
		register(reg, w, id, ts.URL)
		workers = append(workers, w)
	}
	coord := &Coordinator{Registry: reg, RangeSize: 8}
	coord.RegisterMetrics(metrics.NewRegistry())
	eng := &campaign.Engine{Spec: spec, Factory: opts.CampaignFactory()}
	if _, err := coord.RunCampaign(context.Background(), eng, t.TempDir(), false); err != nil {
		t.Fatal(err)
	}
	var misses uint64
	for _, w := range workers {
		_, m := w.Cache.Stats()
		misses += m
	}
	if misses >= uint64(2*cells) {
		t.Errorf("two workers prepared %d times for %d cells, want fewer than %d", misses, cells, 2*cells)
	}
}

// TestCoordinatorCrashResume interrupts a sharded campaign partway
// (coordinator-side cancellation, as a crash would) and finishes it
// with a second coordinator in resume mode; the merged bundle must be
// byte-identical to an unsharded single-node run of the same spec. The
// torn-write case also cuts the journal's last record in half between
// the two coordinators, as a crash mid-append would.
func TestCoordinatorCrashResume(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear bool
	}{{"clean", false}, {"torn-write", true}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := harness.QuickOptions()
			spec := campaign.Spec{
				RunID:      "shard-resume",
				Benchmarks: []string{"bzip2"},
				Schemes:    []string{"faulthound"},
				Workers:    2,
				Fault:      opts.Fault,
			}
			spec.Fault.Injections = 40

			w := newTestWorker(t, opts, 2)
			ts := httptest.NewServer(w.Handler())
			defer ts.Close()
			reg := NewRegistry(nil)
			reg.ExpireAfter = time.Hour
			register(reg, w, "w", ts.URL)

			coord := &Coordinator{Registry: reg, RangeSize: 8}
			coord.RegisterMetrics(metrics.NewRegistry())

			// First attempt: cancel once a quarter of the injections merged.
			ctx, cancel := context.WithCancel(context.Background())
			eng := &campaign.Engine{
				Spec:    spec,
				Factory: opts.CampaignFactory(),
				Progress: func(done, total int) {
					if done >= total/4 {
						cancel()
					}
				},
			}
			dir := t.TempDir()
			if _, err := coord.RunCampaign(ctx, eng, dir, false); err == nil {
				t.Fatal("cancelled sharded campaign reported success")
			}
			cancel()
			if tc.tear {
				tearLastRecord(t, filepath.Join(dir, journalFile))
			}

			// Second coordinator (fresh state, same registry) resumes from the
			// journal and completes.
			coord2 := &Coordinator{Registry: reg, RangeSize: 8}
			coord2.RegisterMetrics(metrics.NewRegistry())
			var warned []string
			eng2 := &campaign.Engine{
				Spec:    spec,
				Factory: opts.CampaignFactory(),
				Warnf:   func(format string, args ...any) { warned = append(warned, fmt.Sprintf(format, args...)) },
			}
			out, err := coord2.RunCampaign(context.Background(), eng2, dir, true)
			if err != nil {
				t.Fatalf("resumed sharded campaign failed: %v", err)
			}
			if out.Resumed == 0 {
				t.Fatal("resume replayed nothing; the first attempt's journal was lost")
			}
			truncations := 0
			for _, msg := range warned {
				if strings.Contains(msg, "truncated") {
					truncations++
				}
			}
			want := 0
			if tc.tear {
				want = 1
			}
			if truncations != want {
				t.Fatalf("resume warned of %d truncations, want %d: %q", truncations, want, warned)
			}

			// Reference: plain single-node engine run.
			refEng := &campaign.Engine{Spec: spec, Factory: opts.CampaignFactory()}
			refDir := t.TempDir()
			if _, err := refEng.Run(context.Background(), refDir, false); err != nil {
				t.Fatalf("single-node reference run failed: %v", err)
			}
			gotResults, gotSummary := readBundleFiles(t, dir)
			wantResults, wantSummary := readBundleFiles(t, refDir)
			if !bytes.Equal(gotResults, wantResults) {
				t.Error("resumed sharded results.csv differs from the single-node run")
			}
			if !bytes.Equal(gotSummary, wantSummary) {
				t.Error("resumed sharded summary.json differs from the single-node run")
			}
		})
	}
}

// journalFile and manifestFile are the run-directory layout the
// campaign engine owns; the tests below reach into it to fake a crash.
const (
	journalFile  = "journal.jsonl"
	manifestFile = "manifest.json"
)

// tearLastRecord cuts a journal's final record roughly in half, as a
// process killed mid-append leaves it.
func tearLastRecord(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSuffix(string(raw), "\n")
	last := strings.LastIndexByte(body, '\n') + 1
	if len(body)-last < 2 {
		t.Fatalf("journal has no final record to tear: %q", raw)
	}
	if err := os.WriteFile(path, []byte(body[:last+(len(body)-last)/2]), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorResumeBadJournal: a coordinator resuming a job whose
// journal the engine rejects fails with the engine's error before it
// leases a single range.
func TestCoordinatorResumeBadJournal(t *testing.T) {
	opts := harness.QuickOptions()
	spec := campaign.Spec{
		RunID:      "bad-journal",
		Benchmarks: []string{"bzip2"},
		Schemes:    []string{"faulthound"},
		Workers:    2,
		Fault:      opts.Fault,
	}
	spec.Fault.Injections = 16
	dir := t.TempDir()
	man, err := campaign.MarshalJSON(campaign.Manifest{Provenance: campaign.Provenance{RunID: spec.RunID}, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), man, 0o644); err != nil {
		t.Fatal(err)
	}
	bogus := `{"kind":"bogus","bench":"bzip2","scheme":"faulthound","index":3}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(bogus), 0o644); err != nil {
		t.Fatal(err)
	}

	w := newTestWorker(t, opts, 2)
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	reg := NewRegistry(nil)
	reg.ExpireAfter = time.Hour
	register(reg, w, "w", ts.URL)
	coord := &Coordinator{Registry: reg, RangeSize: 8}
	coord.RegisterMetrics(metrics.NewRegistry())

	eng := &campaign.Engine{Spec: spec, Factory: opts.CampaignFactory()}
	_, err = coord.RunCampaign(context.Background(), eng, dir, true)
	if err == nil || !strings.Contains(err.Error(), "unknown record kind") {
		t.Fatalf("resume over a bogus journal record returned %v, want the engine's unknown record kind error", err)
	}
	if got := coord.mLeases.Get(); got != 0 {
		t.Fatalf("fh_cluster_leases_granted_total = %v, want 0 (the journal is rejected before dispatch)", got)
	}
}

// TestWorkerShardStream drives one worker's /v1/cluster/run endpoint
// directly and checks the stream shape: a prep record, one result per
// descriptor index in order, and a terminal done record.
func TestWorkerShardStream(t *testing.T) {
	opts := harness.QuickOptions()
	w := newTestWorker(t, opts, 1)
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()

	cfg := opts.Fault
	cfg.Injections = 10
	req := ShardRequest{LeaseID: "t", RunID: "t", Bench: "bzip2", Scheme: "faulthound", From: 3, To: 8, Fault: cfg}
	b, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/cluster/run", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard rejected: HTTP %d", resp.StatusCode)
	}
	var kinds []string
	var indices []int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var rec StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if rec.Kind == KindPing {
			continue
		}
		kinds = append(kinds, rec.Kind)
		if rec.Kind == KindResult {
			if rec.Result == nil {
				t.Fatalf("result record without payload at index %d", rec.Index)
			}
			indices = append(indices, rec.Index)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(kinds) == 0 || kinds[0] != KindPrep {
		t.Fatalf("stream kinds %v, want prep first", kinds)
	}
	if kinds[len(kinds)-1] != KindDone {
		t.Fatalf("stream kinds %v, want done last", kinds)
	}
	want := []int{3, 4, 5, 6, 7}
	if fmt.Sprint(indices) != fmt.Sprint(want) {
		t.Fatalf("result indices %v, want %v", indices, want)
	}

	// Out-of-range, nameless, zero-spread and oversized shards are
	// rejected before any work; a zero spread, or an injection count
	// past the ceiling, used to panic the worker's preparation.
	noSpread := cfg
	noSpread.SpreadCycles = 0
	huge := cfg
	huge.Injections = 1 << 62
	for _, bad := range []ShardRequest{
		{LeaseID: "t", Bench: "bzip2", Scheme: "faulthound", From: 5, To: 99, Fault: cfg},
		{LeaseID: "t", From: 0, To: 1, Fault: cfg},
		{LeaseID: "t", Bench: "bzip2", Scheme: "faulthound", From: 0, To: 1, Fault: noSpread},
		{LeaseID: "t", Bench: "bzip2", Scheme: "faulthound", From: 0, To: 1, Fault: huge},
	} {
		bb, _ := json.Marshal(bad)
		resp, err := http.Post(ts.URL+"/v1/cluster/run", "application/json", bytes.NewReader(bb))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad shard %+v: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestRegistryLifecycle covers heartbeat expiry, failure marking, and
// the re-register handshake against a fake clock.
func TestRegistryLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	reg := NewRegistry(metrics.NewRegistry().Gauge("alive", "test"))
	reg.now = func() time.Time { return now }

	reg.Register(WorkerStatus{ID: "a", Addr: "http://a", Slots: 2})
	reg.Register(WorkerStatus{ID: "b", Addr: "http://b", Slots: 1})
	if n := reg.AliveCount(); n != 2 {
		t.Fatalf("alive after register = %d, want 2", n)
	}

	// b goes silent past the expiry window; a keeps heartbeating.
	now = now.Add(8 * time.Second)
	if !reg.Heartbeat(WorkerStatus{ID: "a", Addr: "http://a", Slots: 2}) {
		t.Fatal("heartbeat for a known worker rejected")
	}
	now = now.Add(4 * time.Second)
	cands := reg.Snapshot()
	if len(cands) != 2 || !cands[0].Alive || cands[1].Alive {
		t.Fatalf("after expiry: %+v, want a alive and b expired", cands)
	}

	// Heartbeats from unknown workers demand a re-register.
	if reg.Heartbeat(WorkerStatus{ID: "ghost", Addr: "http://ghost"}) {
		t.Fatal("heartbeat for an unknown worker accepted")
	}

	// A failed stream takes a worker out immediately; the next
	// heartbeat brings it back.
	reg.MarkFailed("a")
	if reg.AliveCount() != 0 {
		t.Fatal("marked-failed worker still alive")
	}
	reg.Heartbeat(WorkerStatus{ID: "a", Addr: "http://a", Slots: 2})
	if reg.AliveCount() != 1 {
		t.Fatal("heartbeat did not clear the failure mark")
	}

	// Lease accounting clamps at zero and feeds Candidate.Free.
	reg.AddLeases("a", 2)
	if free := reg.Snapshot()[0].Free(); free != 0 {
		t.Fatalf("free slots with 2 leases on 2 slots = %d, want 0", free)
	}
	reg.AddLeases("a", -3)
	if got := reg.Snapshot()[0].Leases; got != 0 {
		t.Fatalf("lease count went negative: %d", got)
	}
}

// TestLeaseRule checks the lease rule on a fabricated fleet: a free
// slot gets the next lease of a cell its worker holds, then the next
// lease of a cell no worker holds, then the first pending lease; a
// dead or full worker gets none.
func TestLeaseRule(t *testing.T) {
	cands := []Candidate{
		{Status: WorkerStatus{ID: "a", Slots: 2}, Alive: true},
		{Status: WorkerStatus{ID: "b", Slots: 2}, Alive: true, Leases: 2}, // full
		{Status: WorkerStatus{ID: "c", Slots: 1}, Alive: true},
		{Status: WorkerStatus{ID: "d", Slots: 4}, Alive: false}, // dead
	}
	var pending []*lease
	for i, cell := range []int{0, 0, 1, 1, 2, 2} {
		pending = append(pending, &lease{cell: cell, from: i})
	}
	h := holdings{{"b": true}, {"a": true}, nil} // b holds cell 0, a cell 1
	grants := func(round string, want string) {
		t.Helper()
		var gs []grant
		gs, pending = h.assign(cands, pending)
		var got []string
		for _, g := range gs {
			got = append(got, fmt.Sprintf("%s:%d@%d", g.w.ID, g.l.cell, g.l.from))
		}
		if s := strings.Join(got, " "); s != want {
			t.Fatalf("%s granted %q, want %q", round, s, want)
		}
	}

	// a takes both leases of cell 1, which it holds. c holds nothing
	// and takes cell 2, which no worker holds, over cell 0, which the
	// full worker b holds.
	grants("first round", "a:1@2 a:1@3 c:2@4")

	// One lease each of a and c finished. a holds no pending cell and
	// every cell is held, so it takes the first pending lease; c takes
	// its own cell 2 over the first pending lease.
	cands[0].Leases = 1
	grants("second round", "a:0@0 c:2@5")
	if len(pending) != 1 || pending[0].from != 1 {
		t.Fatalf("pending after two rounds: %d leases, want only cell 0's at 1", len(pending))
	}
}

// TestCoordinatorRegistryHandlers round-trips the register/heartbeat/
// workers endpoints over HTTP, the way a Joiner drives them.
func TestCoordinatorRegistryHandlers(t *testing.T) {
	reg := NewRegistry(nil)
	coord := &Coordinator{Registry: reg}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	post := func(path string, st WorkerStatus) int {
		b, _ := json.Marshal(st)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("/v1/cluster/heartbeat", WorkerStatus{ID: "w", Addr: "http://w"}); code != http.StatusNotFound {
		t.Fatalf("heartbeat before register: HTTP %d, want 404", code)
	}
	if code := post("/v1/cluster/register", WorkerStatus{ID: "w", Addr: "http://w", Slots: 3}); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}
	if code := post("/v1/cluster/heartbeat", WorkerStatus{ID: "w", Addr: "http://w", Slots: 3}); code != http.StatusOK {
		t.Fatalf("heartbeat after register: HTTP %d", code)
	}
	if code := post("/v1/cluster/register", WorkerStatus{}); code != http.StatusBadRequest {
		t.Fatalf("anonymous register: HTTP %d, want 400", code)
	}

	resp, err := http.Get(ts.URL + "/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Workers []struct {
			WorkerStatus
			Alive bool `json:"alive"`
		} `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Workers) != 1 || body.Workers[0].ID != "w" || !body.Workers[0].Alive {
		t.Fatalf("workers listing %+v, want one live worker w", body.Workers)
	}
}

// TestJoinerRejoins runs a Joiner against a coordinator that forgets
// its registry mid-stream (restart), checking the worker re-registers
// and its readiness signal tracks membership.
func TestJoinerRejoins(t *testing.T) {
	opts := harness.QuickOptions()
	w := newTestWorker(t, opts, 1)

	reg := NewRegistry(nil)
	coord := &Coordinator{Registry: reg}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	j := &Joiner{Worker: w, Coordinator: ts.URL, ID: "w", Addr: "http://w", Interval: 5 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { j.Run(ctx); close(done) }()

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor(func() bool { return w.Joined() && reg.AliveCount() == 1 }, "initial join")

	// Coordinator "restarts": wipe the registry. The next heartbeat is
	// a 404 and the joiner must re-register.
	reg.mu.Lock()
	reg.workers = make(map[string]*workerEntry)
	reg.mu.Unlock()
	waitFor(func() bool { return reg.AliveCount() == 1 }, "re-register after registry loss")

	cancel()
	<-done
}

package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/cluster"
	"faulthound/internal/contract"
	"faulthound/internal/fault"
	"faulthound/internal/obs/metrics"
	"faulthound/internal/pipeline"
	"faulthound/internal/server"
	"faulthound/internal/stats"
	"faulthound/internal/workload"
)

// workloadDef is one named set of inputs. Each round of a workload runs in
// a fresh child process (see main.go).
type workloadDef struct {
	name string
	// rounds is how many untraced rounds a full run gives the workload,
	// sized so each workload's pass stays under about 30 s.
	rounds int
	// seeded workloads draw inputs from -seed (each run function says
	// which); the others always run the same inputs.
	seeded bool
	why    string
	run    func(r *round) error
}

var workloads = []workloadDef{
	{name: "ref1k", rounds: 10, run: runRef1k,
		why: "reference-1k's fixed campaign, then its report: prepare-, injection- and report-heavy at once"},
	{name: "deep-inject", rounds: 8, seeded: true, run: runDeepInject,
		why: "injection-bound: snapshot, fast-forward, fault window, digest checks and early exit; prepare-side changes should not move it"},
	{name: "broad-prepare", rounds: 8, run: runBroadPrepare,
		why: "prepare-bound: every suite, a working set beyond the L2, low value locality; injection-path changes should not move it"},
	{name: "served", rounds: 4, seeded: true, run: runServed,
		why: "the daemon under one closed-loop client: queueing, SSE, shared prepared cache, dedup and report reads"},
	{name: "cluster2", rounds: 10, run: runCluster2,
		why: "reference-1k sharded over two in-process workers: lease, stream and merge cost against ref1k's identical work"},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

const (
	// workers is each campaign's engine pool and the cluster's slot
	// count: the benchmark machine has two cores, and a child runs with
	// GOMAXPROCS=2.
	workers = 2
	// referenceDir holds the committed reference-1k bundle that ref1k and
	// cluster2 must reproduce byte for byte.
	referenceDir = "results/campaigns/reference-1k"
)

// broadPrograms covers every suite, a generated working set far beyond
// the modelled L2 (a 4 MiB segment) and a generated program with low
// value locality. The generated specs set one parameter each: a spec
// with a comma breaks results.csv, whose writer does not quote fields.
var broadPrograms = []string{"perl", "mcf", "gamess", "oltp", "ocean", "micro-chase",
	"gen?seg=4m", "gen?vlocal=0.5"}

// faultConfig is a campaign's fault configuration at the round's size:
// the production defaults (fhcampaign's, checkpoint forking and early
// exit on), or the scaled-down one of the smoke test.
func (r *round) faultConfig(injections int, seed uint64) fault.Config {
	fc := r.opts.Fault
	fc.Injections = injections
	fc.Seed = seed
	return fc
}

// size picks a count at full size or at the smoke test's toy size.
func (r *round) size(full, toy int) int {
	if r.cfg.Toy {
		return toy
	}
	return full
}

// referenceSpec is reference-1k's campaign as its committed manifest
// records it, with the execution knobs the manifest omits set as
// fhcampaign sets them.
func (r *round) referenceSpec() (campaign.Spec, error) {
	if r.cfg.Toy {
		return campaign.Spec{RunID: "reference-1k", Benchmarks: []string{"bzip2", "mcf"},
			Schemes: []string{"faulthound"}, Fault: r.faultConfig(4, 42)}, nil
	}
	man, err := campaign.ReadManifest(filepath.Join(r.cfg.Root, referenceDir))
	if err != nil {
		return campaign.Spec{}, err
	}
	spec := man.Spec
	spec.Fault.CheckpointCycles = r.opts.Fault.CheckpointCycles
	spec.Fault.EarlyExit = r.opts.Fault.EarlyExit
	return spec, nil
}

func runRef1k(r *round) error {
	spec, err := r.referenceSpec()
	if err != nil {
		return err
	}
	dir, err := r.campaign(spec)
	if err != nil {
		return err
	}
	return r.matchReference(dir, true)
}

func runDeepInject(r *round) error {
	spec := campaign.Spec{RunID: "deep-inject", Benchmarks: []string{"bzip2", "mcf"},
		Schemes: []string{"faulthound"}, Fault: r.faultConfig(r.size(2000, 8), r.cfg.Seed)}
	_, err := r.campaign(spec)
	return err
}

// runBroadPrepare's inputs are fixed, on reference-1k's seed 42. With
// eight injections per cell, a drawn descriptor stream decides whether
// the report replays no cell or several, and a drawn program order moves
// peak memory by a fifth; either would make runs on different seeds
// disagree by more than any change worth catching.
func runBroadPrepare(r *round) error {
	progs := broadPrograms
	if r.cfg.Toy {
		progs = []string{"perl", "gen?vlocal=0.5"}
	}
	benches, err := workload.ExpandSpecs(progs)
	if err != nil {
		return err
	}
	spec := campaign.Spec{RunID: "broad-prepare", Benchmarks: benches,
		Schemes: []string{"faulthound"}, Fault: r.faultConfig(r.size(8, 2), 42)}
	_, err = r.campaign(spec)
	return err
}

// campaign runs spec through the engine into a fresh bundle, reports on
// the bundle, and checks it.
func (r *round) campaign(spec campaign.Spec) (string, error) {
	spec.Workers = workers
	if err := r.build(spec.Cells()); err != nil {
		return "", err
	}
	dir := filepath.Join(r.cfg.Dir, spec.RunID)
	eng := &campaign.Engine{Spec: spec, Factory: r.factory}
	id, op := r.tr.id(), r.nextOp()
	r.probe.hook(eng, id, op)
	start, d, err := r.timed(func() error {
		_, err := eng.Run(context.Background(), dir, false)
		return err
	})
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		return "", fmt.Errorf("campaign: %w", err)
	}
	r.tr.add(span{ID: id, Op: op, Layer: "campaign", Name: "run", Start: start, End: start.Add(d)})
	r.runs = append(r.runs, id)
	r.res.Injections += len(spec.Cells()) * spec.Fault.Injections
	r.res.InjWallS += d.Seconds()
	r.res.JobS = append(r.res.JobS, d.Seconds())
	r.setPerf(r.probe.perf())

	if err := r.timedReport(dir); err != nil {
		return "", err
	}
	return dir, r.bundle("", dir)
}

// timedReport is the round's report operation on a fresh bundle.
func (r *round) timedReport(dir string) error {
	d, err := r.report(dir, nil)
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		return fmt.Errorf("report: %w", err)
	}
	r.res.ReportS = append(r.res.ReportS, d.Seconds())
	return nil
}

// servedTCAMs are the served jobs: bzip2 and mcf under faulthound at
// each TCAM size. Every job also has the two baseline cells, which the
// daemon's prepared cache shares across jobs. Only one parameter varies:
// a two-parameter scheme spec has a comma, which breaks results.csv (its
// writer does not quote fields).
var servedTCAMs = []int{8, 12, 16, 20, 24, 40, 56, 64}

// servedOp is one operation of the served client on job (an index into
// the job list): a new job submitted and watched to done, a duplicate
// submit that must be a cache hit, or a first-time report GET.
type servedOp struct {
	kind string // "new", "dup" or "report"
	job  int
}

// servedPlan returns the served jobs and the client's closed loop, in
// which each op is issued once the previous one has completed. The seed
// draws the order the jobs are submitted in and which of them are
// resubmitted; the fault seed stays reference-1k's 42, and the report
// GETs go to the same two jobs on every seed, so each seed's GETs replay
// the same detected injections.
func servedPlan(r *round) ([]campaign.Spec, []servedOp) {
	tcams := servedTCAMs
	if r.cfg.Toy {
		tcams = tcams[:2]
	}
	fc := r.faultConfig(r.size(64, 2), 42)
	specs := make([]campaign.Spec, len(tcams))
	for i, t := range tcams {
		specs[i] = campaign.Spec{Benchmarks: []string{"bzip2", "mcf"},
			Schemes: []string{fmt.Sprintf("faulthound?tcam=%d", t)}, Fault: fc}
	}
	order := stats.NewRNG(r.cfg.Seed).Perm(len(specs))
	var ops []servedOp
	for half := 0; half < len(order); half += 4 {
		group := order[half:min(half+4, len(order))]
		for _, j := range group {
			ops = append(ops, servedOp{"new", j})
		}
		ops = append(ops, servedOp{"dup", group[0]})
	}
	ops = append(ops, servedOp{"report", 1})
	if !r.cfg.Toy {
		ops = append(ops, servedOp{"report", 5})
	}
	return specs, ops
}

// servedState carries the client's current op to the daemon's runner,
// which runs on the daemon's own goroutine.
type servedState struct {
	mu       sync.Mutex
	opSpan   int
	op       int
	runWallS map[int]float64 // by op: the engine's share of the job
}

func runServed(r *round) error {
	specs, ops := servedPlan(r)
	fc := specs[0].Fault
	for _, s := range specs {
		if err := r.build(s.Cells()); err != nil {
			return err
		}
	}

	st := &servedState{runWallS: map[int]float64{}}
	cache := fault.NewPreparedCache()
	root := filepath.Join(r.cfg.Dir, "served")
	srv, err := server.New(server.Config{
		Root: root, Factory: r.factory, BaseFault: fc, Jobs: 1, Workers: workers,
		// A fixed commit keeps job IDs, and with them the bundles, the
		// same in every checkout.
		GitCommit: "fhbench", Prepared: cache,
		Runner: func(ctx context.Context, eng *campaign.Engine, dir string, resume bool) (*campaign.Outcome, error) {
			st.mu.Lock()
			parent, op := st.opSpan, st.op
			st.mu.Unlock()
			id := r.tr.id()
			r.probe.hook(eng, id, op)
			start := time.Now()
			out, err := eng.Run(ctx, dir, resume)
			end := time.Now()
			r.tr.add(span{ID: id, Parent: parent, Op: op, Layer: "campaign", Name: "run", Start: start, End: end})
			st.mu.Lock()
			st.runWallS[op] = end.Sub(start).Seconds()
			r.runs = append(r.runs, id)
			st.mu.Unlock()
			return out, err
		},
	})
	if err != nil {
		return err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		_ = srv.Drain(context.Background()) // no job is running once the loop ends
	}()
	cl := server.NewClient(ts.URL)
	ctx := context.Background()

	ids := make([]string, len(specs))
	var jobLat []float64
	for _, o := range ops {
		id, op := r.tr.id(), r.nextOp()
		st.mu.Lock()
		st.opSpan, st.op = id, op
		st.mu.Unlock()
		start, d, err := r.timed(func() error { return servedDo(ctx, cl, ts, o, specs, ids) })
		r.res.Attempted++
		r.tr.add(span{ID: id, Op: op, Layer: "server", Name: o.kind, Start: start, End: start.Add(d), Arg: fmt.Sprintf("job=%d", o.job)})
		if err != nil {
			r.res.Failed++
			r.errorf("served op %s job %d: %v", o.kind, o.job, err)
			continue
		}
		r.res.InjWallS += d.Seconds()
		switch o.kind {
		case "new":
			r.res.JobS = append(r.res.JobS, d.Seconds())
			r.res.Injections += len(specs[o.job].Cells()) * fc.Injections
			st.mu.Lock()
			jobLat = append(jobLat, 1-st.runWallS[op]/d.Seconds())
			st.mu.Unlock()
		case "report":
			r.res.ReportS = append(r.res.ReportS, d.Seconds())
		}
	}
	if len(r.res.Errors) > 0 {
		return nil
	}

	hits, misses := cache.Stats()
	for i, id := range ids {
		if err := r.bundle(fmt.Sprintf("job%d/", i), filepath.Join(root, id)); err != nil {
			return err
		}
	}
	r.setPerf(r.probe.perf())
	if r.tr == nil {
		return nil
	}
	r.layer["server.front_door_frac"] = median(jobLat)
	r.layer["server.queue_wait_frac"] = srv.Registry().Histogram("fhserved_job_queue_wait_seconds", "", nil).Sum() / sum(r.res.JobS)
	r.layer["fault.prepared_hit_frac"] = float64(hits) / float64(hits+misses)
	// The daemon's report replays run inside it, where this benchmark
	// has no hook. Replay two bundles nobody has reported on yet the
	// way the daemon does — through its prepared cache — to measure the
	// report layer on this workload's data.
	prep := func(bench, schemeSpec string, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
		return cache.Get(fault.PreparedKey{Bench: bench, Scheme: schemeSpec, Cfg: cfg}, mk)
	}
	unreported := []int{2, 3}
	if r.cfg.Toy {
		unreported = []int{0}
	}
	for _, job := range unreported {
		if _, err := r.report(filepath.Join(root, ids[job]), prep); err != nil {
			return fmt.Errorf("report replay of job %d: %w", job, err)
		}
	}
	return nil
}

// servedDo performs one client op against the daemon. A report GET's
// body must be a valid quality.json; the daemon also writes it into the
// job's bundle, where the round's output hashes cover it.
func servedDo(ctx context.Context, cl *server.Client, ts *httptest.Server, o servedOp, specs []campaign.Spec, ids []string) error {
	switch o.kind {
	case "new":
		st, err := cl.Submit(ctx, specs[o.job])
		if err != nil {
			return err
		}
		if st.CacheHit {
			return fmt.Errorf("a new spec was served from the cache (job %s)", st.ID)
		}
		ids[o.job] = st.ID
		fin, err := cl.Watch(ctx, st.ID, nil)
		if err != nil {
			return err
		}
		if fin.State != server.StateDone {
			return fmt.Errorf("job %s ended %s: %s", fin.ID, fin.State, fin.Error)
		}
	case "dup":
		st, err := cl.Submit(ctx, specs[o.job])
		if err != nil {
			return err
		}
		if !st.CacheHit || st.State != server.StateDone || st.ID != ids[o.job] {
			return fmt.Errorf("duplicate submit was not a cache hit on job %s: got %s (%s, cache_hit=%v)", ids[o.job], st.ID, st.State, st.CacheHit)
		}
	case "report":
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + ids[o.job] + "/report")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
		}
		return contract.ValidateJSON(contract.KindQuality, body)
	}
	return nil
}

func runCluster2(r *round) error {
	spec, err := r.referenceSpec()
	if err != nil {
		return err
	}
	spec.Workers = workers
	if err := r.build(spec.Cells()); err != nil {
		return err
	}

	reg := cluster.NewRegistry(nil)
	// The round ends long before a missed heartbeat could matter.
	reg.ExpireAfter = time.Hour
	coord := &cluster.Coordinator{Registry: reg, Policy: &cluster.RoundRobin{}, RangeSize: 32}
	mreg := metrics.NewRegistry()
	coord.RegisterMetrics(mreg)
	cts := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	servers := []*httptest.Server{cts}
	defer func() {
		cancel()
		wg.Wait()
		for _, s := range servers {
			s.Close()
		}
	}()
	caches := make([]*fault.PreparedCache, workers)
	for i := range caches {
		caches[i] = fault.NewPreparedCache()
		w := &cluster.Worker{Factory: r.factory, Cache: caches[i], Slots: 1}
		var h http.Handler = w.Handler()
		if r.tr != nil {
			h = leaseProbe(h, r.probe, i+1)
		}
		ts := httptest.NewServer(h)
		servers = append(servers, ts)
		j := &cluster.Joiner{Worker: w, Coordinator: cts.URL, ID: fmt.Sprintf("w%d", i+1), Addr: ts.URL}
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.Run(ctx)
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); reg.AliveCount() < workers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d of %d workers registered", reg.AliveCount(), workers)
		}
	}

	dir := filepath.Join(r.cfg.Dir, spec.RunID)
	eng := &campaign.Engine{Spec: spec, Factory: r.factory}
	id, op := r.tr.id(), r.nextOp()
	r.probe.setRun(id, op)
	start, d, err := r.timed(func() error {
		_, err := coord.RunCampaign(ctx, eng, dir, false)
		return err
	})
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		return fmt.Errorf("cluster campaign: %w", err)
	}
	r.tr.add(span{ID: id, Op: op, Layer: "cluster", Name: "run", Start: start, End: start.Add(d)})
	r.runs = append(r.runs, id)
	r.res.Injections += len(spec.Cells()) * spec.Fault.Injections
	r.res.InjWallS += d.Seconds()
	r.res.JobS = append(r.res.JobS, d.Seconds())

	var hits, misses uint64
	var prepared []*fault.Prepared
	for _, c := range caches {
		h, m := c.Stats()
		hits, misses = hits+h, misses+m
		for _, k := range c.Keys() {
			p, err := c.Get(k, nil) // present: Get returns the cached entry
			if err != nil {
				return err
			}
			prepared = append(prepared, p)
		}
	}
	r.setPerf(sumPerf(prepared))
	if r.tr != nil {
		r.layer["fault.prepared_hit_frac"] = float64(hits) / float64(hits+misses)
		r.layer["cluster.leases"] = mreg.Counter("fh_cluster_leases_granted_total", "").Get()
		r.layer["cluster.leases_expired"] = mreg.Counter("fh_cluster_leases_expired_total", "").Get()
		r.layer["cluster.merge_frac"] = mreg.Histogram("fh_cluster_merge_seconds", "", nil).Sum() / d.Seconds()
	}

	if err := r.timedReport(dir); err != nil {
		return err
	}
	if err := r.bundle("", dir); err != nil {
		return err
	}
	return r.matchReference(dir, false)
}

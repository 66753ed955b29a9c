package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/contract"
	"faulthound/internal/fault"
	"faulthound/internal/harness"
	"faulthound/internal/pipeline"
	"faulthound/internal/report"
)

// processStart is when the process's main began; a round's set-up time
// runs from here to its first timed call.
var processStart = time.Now()

// roundConfig selects one round of one workload.
type roundConfig struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	// Toy shrinks every workload to a few seconds in total for the smoke
	// test; toy bundles are not compared with the reference bundle.
	Toy bool `json:"toy"`
	// Root is the repository checkout (the reference bundle lives there).
	Root string `json:"root"`
	// Dir is a scratch directory for the round's bundles.
	Dir string `json:"dir"`
	// TracePath receives a traced round's Perfetto trace.
	TracePath string `json:"trace_path,omitempty"`
}

// simCounts are the round's simulated statistics. A change that only
// speeds up the simulator must leave every one of them unchanged, and
// every round of one workload and seed must agree on them.
type simCounts struct {
	Masked, Noisy, SDC, Detected int
	// Runs, EarlyExits, ForkCyclesSaved and OffsetCycles are
	// Prepared.Perf summed over the round's golden preparations.
	Runs, EarlyExits, ForkCyclesSaved, OffsetCycles uint64
}

// roundResult is what a round reports to the parent.
type roundResult struct {
	SetupS float64 `json:"setup_s"`
	// Injections executed and the wall time of the calls that executed
	// them (Engine.Run, Coordinator.RunCampaign, or the served loop).
	Injections int       `json:"injections"`
	InjWallS   float64   `json:"inj_wall_s"`
	JobS       []float64 `json:"job_s"`
	ReportS    []float64 `json:"report_s"`
	// PeakRSSMB is the child process's maximum resident set; the parent
	// fills it in.
	PeakRSSMB float64  `json:"peak_rss_mb"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Outputs maps each output file to its SHA-256 (quality.json without
	// its build and creation-time provenance).
	Outputs map[string]string `json:"outputs"`
	Sim     simCounts         `json:"sim"`
	// Layer holds the per-layer metrics of a traced round, SelfS each
	// layer's self time, and Closure the worst share of a campaign run's
	// wall time its ledger leaves unaccounted.
	Layer   map[string]float64 `json:"layer,omitempty"`
	SelfS   map[string]float64 `json:"self_s,omitempty"`
	Closure float64            `json:"closure,omitempty"`
}

// round is one round in progress.
type round struct {
	cfg     roundConfig
	res     *roundResult
	opts    harness.Options
	factory campaign.CoreFactory
	tr      *tracer // nil when untraced
	probe   *faultProbe
	// layer collects per-layer metrics that only a workload knows.
	layer   map[string]float64
	cells   []campaign.Cell
	built   map[campaign.Cell]bool
	runs    []int // campaign run span IDs, for the ledger
	journal int64 // bytes of every bundle's journal
	replay  replayStats
	started bool
	ops     int
}

// runRound runs one round of one workload in this process.
func runRound(cfg roundConfig) *roundResult {
	res := &roundResult{Outputs: map[string]string{}}
	opts := harness.DefaultOptions()
	if cfg.Toy {
		opts = harness.QuickOptions()
	}
	r := &round{cfg: cfg, res: res, opts: opts, factory: opts.CampaignFactory(), built: map[campaign.Cell]bool{}}
	if cfg.Traced {
		r.tr = newTracer()
		r.layer = map[string]float64{}
		for _, d := range perLayer {
			if d.Name != "obs.trace_overhead_frac" { // the parent derives it
				r.layer[d.Name] = 0
			}
		}
	}
	r.probe = newFaultProbe(r.tr)
	w, err := lookupWorkload(cfg.Workload)
	if err == nil {
		err = w.run(r)
	}
	if err == nil && r.tr != nil && len(res.Errors) == 0 {
		err = r.finishTrace()
	}
	if err != nil {
		r.errorf("%v", err)
	}
	return res
}

// errorf records a failed check, naming the workload.
func (r *round) errorf(format string, args ...any) {
	r.res.Errors = append(r.res.Errors, r.cfg.Workload+": "+fmt.Sprintf(format, args...))
}

func (r *round) nextOp() int {
	r.ops++
	return r.ops
}

// timed ends set-up at the round's first timed call, collects garbage
// so no call pays for the previous one's, and times fn.
func (r *round) timed(fn func() error) (time.Time, time.Duration, error) {
	if !r.started {
		r.started = true
		r.res.SetupS = time.Since(processStart).Seconds()
	}
	runtime.GC()
	start := time.Now()
	err := fn()
	return start, time.Since(start), err
}

// build resolves each new cell through the harness factory and builds
// its core once: the program builds that set-up covers. The cells are
// remembered for the pipeline micro-benchmark of traced rounds.
func (r *round) build(cells []campaign.Cell) error {
	for _, c := range cells {
		if r.built[c] {
			continue
		}
		mk, err := r.factory(c.Bench, c.Scheme)
		if err != nil {
			return fmt.Errorf("resolving %s: %w", c, err)
		}
		mk()
		r.built[c] = true
		r.cells = append(r.cells, c)
	}
	return nil
}

func (r *round) setPerf(pf fault.Perf) {
	r.res.Sim.Runs, r.res.Sim.EarlyExits = pf.Runs, pf.EarlyExits
	r.res.Sim.ForkCyclesSaved, r.res.Sim.OffsetCycles = pf.ForkCyclesSaved, pf.OffsetCycles
}

// replayStats times the report layer's replay through the Replayer's
// Prepare and Outcome hooks. Replay is serial, so each outcome closes
// the run that began when the previous preparation or run ended.
// reportS is the wall time of the hooked reports.
type replayStats struct {
	prepS, runS []float64
	reportS     float64
	mark        time.Time
}

// report derives dir's quality report the way `fhreport bundle` does,
// and writes it into the bundle. prep, when non-nil, replaces golden
// preparation (the served daemon routes it through its cache). A traced
// round also records the replay's timings and spans.
func (r *round) report(dir string, prep func(bench, schemeSpec string, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error)) (time.Duration, error) {
	id, op := r.tr.id(), r.nextOp()
	start, d, err := r.timed(func() error {
		man, err := campaign.ReadManifest(dir)
		if err != nil {
			return err
		}
		rep := report.NewReplayer(man, r.factory)
		rep.Prepare = prep
		if r.tr != nil {
			r.hookReplay(rep, id, op)
		}
		q, err := report.Generate(dir, report.Options{Latency: rep})
		if err != nil {
			return err
		}
		_, _, err = report.WriteFiles(dir, q)
		return err
	})
	r.tr.add(span{ID: id, Op: op, Layer: "report", Name: "generate", Start: start, End: start.Add(d)})
	if r.tr != nil {
		r.replay.reportS += d.Seconds()
	}
	return d, err
}

func (r *round) hookReplay(rep *report.Replayer, parent, op int) {
	base := rep.Prepare
	if base == nil {
		base = func(_, _ string, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
			return fault.Prepare(mk, cfg)
		}
	}
	s := &r.replay
	rep.Prepare = func(bench, schemeSpec string, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
		t0 := time.Now()
		p, err := base(bench, schemeSpec, mk, cfg)
		s.mark = time.Now()
		s.prepS = append(s.prepS, s.mark.Sub(t0).Seconds())
		r.tr.record(parent, op, "report", "replay_prepare", 0, t0, s.mark, bench+"/"+schemeSpec)
		return p, err
	}
	rep.Outcome = func(_, _ string, _ int, outcome string) {
		now := time.Now()
		s.runS = append(s.runS, now.Sub(s.mark).Seconds())
		r.tr.record(parent, op, "report", "replay_run", 0, s.mark, now, outcome)
		s.mark = now
	}
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// bundle checks a finished bundle against the artifact contracts and
// records its outputs and simulated outcome counts. prefix names the
// bundle among several in one round.
func (r *round) bundle(prefix, dir string) error {
	if err := contract.ValidateBundle(dir); err != nil {
		return fmt.Errorf("%s: %w", dir, err)
	}
	for _, f := range []string{campaign.ResultsName, campaign.SummaryName, filepath.Join(contract.ReportDirName, contract.QualityJSONName)} {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if os.IsNotExist(err) && f != campaign.ResultsName && f != campaign.SummaryName {
			continue // a served job nobody asked a report of
		}
		if err != nil {
			return err
		}
		r.output(prefix+filepath.ToSlash(f), b)
	}
	var sum campaign.Summary
	b, err := os.ReadFile(filepath.Join(dir, campaign.SummaryName))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &sum); err != nil {
		return fmt.Errorf("%s: %w", campaign.SummaryName, err)
	}
	for _, c := range sum.Cells {
		r.res.Sim.Masked += c.Masked
		r.res.Sim.Noisy += c.Noisy
		r.res.Sim.SDC += c.SDC
		r.res.Sim.Detected += c.Detected
	}
	st, err := os.Stat(filepath.Join(dir, campaign.JournalName))
	if err != nil {
		return err
	}
	r.journal += st.Size()
	return nil
}

// output records the hash of one output file.
func (r *round) output(name string, b []byte) {
	if filepath.Base(name) == contract.QualityJSONName {
		var err error
		if b, err = normalizeQuality(b); err != nil {
			r.errorf("%s: %v", name, err)
			return
		}
	}
	h := sha256.Sum256(b)
	r.res.Outputs[name] = hex.EncodeToString(h[:])
}

// normalizeQuality drops quality.json's provenance (the generator
// names the build; the source echoes the bundle's creation time), which
// differs between any two runs that agree on every result.
func normalizeQuality(b []byte) ([]byte, error) {
	var q report.Quality
	if err := json.Unmarshal(b, &q); err != nil {
		return nil, err
	}
	q.Generator, q.Source = "", report.Source{}
	return campaign.MarshalJSON(q)
}

// matchReference byte-compares a bundle's results with the committed
// reference-1k bundle's; withReport also compares the quality report.
func (r *round) matchReference(dir string, withReport bool) error {
	if r.cfg.Toy {
		return nil
	}
	files := []string{campaign.ResultsName, campaign.SummaryName}
	if withReport {
		files = append(files, filepath.Join(contract.ReportDirName, contract.QualityJSONName))
	}
	for _, f := range files {
		got, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return err
		}
		want, err := os.ReadFile(filepath.Join(r.cfg.Root, referenceDir, f))
		if err != nil {
			return err
		}
		if filepath.Base(f) == contract.QualityJSONName {
			if got, err = normalizeQuality(got); err != nil {
				return err
			}
			if want, err = normalizeQuality(want); err != nil {
				return err
			}
		}
		if !bytes.Equal(got, want) {
			r.errorf("%s differs from %s", f, filepath.Join(referenceDir, f))
		}
	}
	return nil
}

// pipelineBench times the pipeline layer directly, on a fresh core of
// every cell the round ran, built by the same harness factory: the
// detector fast-forward and warm-up run of golden preparation, then
// repeated snapshots into one arena and digest captures of the warmed
// core, the two calls every injection makes.
func (r *round) pipelineBench() error {
	const calls = 100
	fc := r.opts.Fault
	var warm, snap, dig []float64
	var cycles, secs float64
	for _, c := range r.cells {
		mk, err := r.factory(c.Bench, c.Scheme)
		if err != nil {
			return err
		}
		core := mk()
		op := r.nextOp()
		runtime.GC()
		t0 := time.Now()
		core.WarmDetector(fc.DetectorWarmupInstr)
		t1 := time.Now()
		cycles += float64(core.Run(fc.WarmupCycles))
		t2 := time.Now()
		secs += t2.Sub(t1).Seconds()
		if core.Detector() != nil { // baseline cores have nothing to warm
			warm = append(warm, t1.Sub(t0).Seconds())
		}
		core.SetCloneBaseline(core) // a frozen fork origin, as after Prepare
		arena := pipeline.NewSnapshotArena()
		for i := 0; i < calls; i++ {
			t := time.Now()
			core.Snapshot(arena)
			snap = append(snap, micros(time.Since(t)))
		}
		t3 := time.Now()
		for i := 0; i < calls; i++ {
			t := time.Now()
			core.CaptureDigest()
			dig = append(dig, micros(time.Since(t)))
		}
		t4 := time.Now()
		cell := c.String()
		r.tr.record(0, op, "pipeline", "warm_detector", 0, t0, t1, cell)
		r.tr.record(0, op, "pipeline", "run", 0, t1, t2, cell)
		r.tr.record(0, op, "pipeline", "snapshot", 0, t2, t3, cell)
		r.tr.record(0, op, "pipeline", "digest", 0, t3, t4, cell)
	}
	r.layer["pipeline.warm_detector_s"] = median(warm)
	r.layer["pipeline.cycles_per_s"] = cycles / secs
	r.layer["pipeline.snapshot_us_p50"] = median(snap)
	r.layer["pipeline.digest_us_p50"] = median(dig)
	return nil
}

// finishTrace derives a traced round's per-layer metrics from its
// spans and probes, and writes its trace.
func (r *round) finishTrace() error {
	if err := r.pipelineBench(); err != nil {
		return err
	}
	spans := r.tr.all()
	L := r.layer

	L["fault.prepare_s_sum"] = sum(r.probe.prepS)
	L["fault.prepare_s_p50"] = median(r.probe.prepS)
	var inj []float64
	var injS, maskedS float64
	for _, s := range spans {
		if s.Layer == "fault" && s.Name == "injection" {
			d := s.dur()
			inj = append(inj, micros(d))
			injS += d.Seconds()
			if s.Arg == fault.Masked.String() {
				maskedS += d.Seconds()
			}
		}
	}
	L["fault.run_one_us_p50"] = median(inj)
	L["fault.run_one_us_p90"] = nearestRank(inj, 0.90)
	L["fault.masked_time_frac"] = maskedS / injS
	sim := r.res.Sim
	L["fault.early_exit_frac"] = ratio(sim.EarlyExits, sim.Runs)
	L["fault.fork_saved_frac"] = ratio(sim.ForkCyclesSaved, sim.OffsetCycles)

	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var busy, capacity float64
	var heads, tails []float64
	for _, id := range r.runs {
		l := ledgerOf(byID[id], spans, workers)
		busy += l.Busy
		capacity += float64(l.Workers) * l.Wall
		heads = append(heads, l.Head*1e3)
		tails = append(tails, l.Tail*1e3)
		r.res.Closure = math.Max(r.res.Closure, l.closure())
	}
	if r.res.Closure > 0.05 {
		return fmt.Errorf("a campaign run's ledger leaves %.1f%% of its wall time unaccounted", 100*r.res.Closure)
	}
	L["campaign.worker_idle_frac"] = 1 - busy/capacity
	L["campaign.head_ms"] = median(heads)
	L["campaign.tail_ms"] = median(tails)
	L["campaign.journal_bytes_per_inj"] = float64(r.journal) / float64(r.res.Injections)

	if rs := r.replay; rs.reportS > 0 {
		L["report.replay_prepare_frac"] = sum(rs.prepS) / rs.reportS
		L["report.replay_run_frac"] = sum(rs.runS) / rs.reportS
		L["report.replayed_runs"] = float64(len(rs.runS))
	}

	for k, v := range L {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("per-layer metric %s is %v", k, v)
		}
	}
	r.res.Layer = L
	r.res.SelfS = selfTimes(spans)
	if r.cfg.TracePath == "" {
		return nil
	}
	return r.tr.writePerfetto(r.cfg.TracePath, r.trackNames())
}

func (r *round) trackNames() map[int]string {
	names := map[int]string{0: "fhbench"}
	for w := 1; w <= workers; w++ {
		names[w] = fmt.Sprintf("worker-%d", w)
	}
	return names
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

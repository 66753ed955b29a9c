// Command fhcampaign runs a parallel, resumable fault-injection
// campaign and writes a provenance-stamped artifact bundle: a manifest
// (run ID, config, seed, toolchain, git commit), a JSONL journal of
// every completed injection, per-injection results.csv, aggregate
// summary.json, and a human-readable report.md.
//
// Usage:
//
//	fhcampaign -bench bzip2,mcf -schemes faulthound -injections 1000 -workers 4
//	fhcampaign -bench all -schemes pbfs,faulthound -out results/campaigns/sweep1
//	fhcampaign -resume results/campaigns/sweep1
//	fhcampaign -addr localhost:8418 -bench bzip2 -schemes faulthound
//
// Results are bit-identical for any -workers value, and an interrupted
// campaign (Ctrl-C) resumes from its journal with -resume, reproducing
// the uninterrupted bundle byte for byte.
//
// With -audit p a local campaign re-simulates a seeded fraction p of
// its early-exiting runs to the end of their window and fails on any
// Result that differs; the end line reports the run's acceleration
// counters (runs, early exits, fork-saved fraction, audits and
// violations). Results never depend on p:
//
//	fhcampaign -resume results/campaigns/sweep1 -workers 1 -audit 1
//
// With -addr the campaign is submitted to a running fhserved daemon
// instead of executing locally: identical specs deduplicate against
// the daemon's spec-hash cache, and the rendered tables come from the
// daemon's bundle. See docs/SERVER.md.
//
// With -optimize the tool runs a Pareto search instead of a fixed
// campaign: a deterministic, seeded evolutionary driver mutates the
// base schemes' registry parameters, scores each configuration on
// coverage, false-positive rate, energy overhead, and perf overhead,
// and writes the non-dominated frontier as pareto.{csv,json,md}
// artifacts. Same seed + weights + budget ⇒ byte-identical artifacts,
// for any -workers value. See docs/OPTIMIZE.md:
//
//	fhcampaign -optimize -quick -bench bzip2 -schemes faulthound -budget 12
//	fhcampaign -optimize -addr localhost:8418 -bench bzip2 -schemes faulthound
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/fault"
	"faulthound/internal/harness"
	"faulthound/internal/obs"
	"faulthound/internal/obs/metrics"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
	"faulthound/internal/search"
	"faulthound/internal/server"
	"faulthound/internal/wgen"
	"faulthound/internal/workload"
)

func main() {
	var (
		bench      = flag.String("bench", "all", "comma-separated benchmarks, or \"all\" for the full Table-1 suite")
		workloads  = flag.String("workloads", "", "comma-separated workload specs overriding -bench; generated specs parameterize with '?' (\"gen?stride=64,seg=256k\") and '|' sweeps fan out into cells (\"gen?stride=8|64|512\") (generators: "+wgen.Usage()+")")
		schemes    = flag.String("schemes", "faulthound", "comma-separated scheme specs under test (baseline runs implicitly); parameters attach with '?' (\"faulthound?tcam=16,delay=6\") and '|' sweeps fan out into cells (\"faulthound?tcam=8|16|32\")")
		injections = flag.Int("injections", 0, "injections per benchmark x scheme cell (default: harness default)")
		workers    = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS); results do not depend on it")
		seed       = flag.Uint64("seed", 0, "campaign seed override")
		runID      = flag.String("runid", "", "run identifier (default: UTC timestamp)")
		out        = flag.String("out", "", "artifact bundle directory (default: results/campaigns/<runid>)")
		resume     = flag.String("resume", "", "resume an interrupted campaign from its bundle directory")
		addr       = flag.String("addr", "", "submit to a fhserved daemon at this address instead of running locally")
		retries    = flag.Int("retries", 4, "with -addr: retry transient daemon failures (connection resets, 5xx, 429) this many times with jittered exponential backoff")
		traceDir   = flag.String("trace-dir", "", "write a Perfetto trace.json of the run's injection lifecycle into this directory")
		quick      = flag.Bool("quick", false, "scaled-down fault config for smoke testing")
		verbose    = flag.Bool("v", false, "per-cell progress lines")
		audit      = flag.Float64("audit", 0, "local campaigns: re-simulate this fraction of early-exiting runs to the end of their window and fail on any Result that differs (0 = none, 1 = all); results do not depend on it")

		// Pareto search (docs/OPTIMIZE.md).
		optimize   = flag.Bool("optimize", false, "run a Pareto search over the base schemes' parameters instead of a fixed campaign")
		budget     = flag.Int("budget", 8, "with -optimize: distinct configurations to evaluate")
		optWeights = flag.String("fitness-weights", "", "with -optimize: objective weights as \"coverage=1,fp=1,energy=1,perf=1\" (missing keys default to 1)")
		optParams  = flag.String("opt-params", "", "with -optimize: comma-separated parameter names to mutate (default: every mutable parameter)")
	)
	flag.Parse()
	if !(*audit >= 0 && *audit <= 1) {
		fatal(fmt.Errorf("-audit %v: want a fraction in [0, 1]", *audit))
	}
	if *audit != 0 && (*optimize || *addr != "") {
		fatal(fmt.Errorf("-audit applies to local campaigns only, not to -optimize or -addr"))
	}

	opts := harness.DefaultOptions()
	if *quick {
		opts = harness.QuickOptions()
	}
	opts.Verbose = *verbose
	opts.Workers = *workers

	if *optimize {
		if *resume != "" {
			fatal(fmt.Errorf("-optimize and -resume are incompatible (searches are cheap to rerun: same seed, same frontier)"))
		}
		runOptimize(opts, optimizeFlags{
			bench:      *bench,
			workloads:  *workloads,
			schemes:    *schemes,
			injections: *injections,
			seed:       *seed,
			budget:     *budget,
			weights:    *optWeights,
			params:     *optParams,
			runID:      *runID,
			out:        *out,
			addr:       *addr,
			retries:    *retries,
			verbose:    *verbose,
		})
		return
	}

	var (
		spec campaign.Spec
		dir  string
	)
	if *addr != "" && *resume != "" {
		fatal(fmt.Errorf("-addr and -resume are incompatible (the daemon resumes its own jobs)"))
	}
	if *resume != "" {
		man, err := campaign.ReadManifest(*resume)
		if err != nil {
			fatal(err)
		}
		spec = man.Spec
		spec.Workers = *workers // 0 keeps GOMAXPROCS; flag overrides
		dir = *resume
	} else {
		spec = opts.CampaignSpec(nil, nil)
		benches, err := benchList(*bench, *workloads)
		if err != nil {
			fatal(err)
		}
		spec.Benchmarks = benches
		specs, err := scheme.ParseList(*schemes)
		if err != nil {
			fatal(err)
		}
		for _, sp := range specs {
			spec.Schemes = append(spec.Schemes, sp.String())
		}
		if *injections > 0 {
			spec.Fault.Injections = *injections
		}
		if *seed != 0 {
			spec.Fault.Seed = *seed
		}
		spec.RunID = *runID
		if spec.RunID == "" {
			spec.RunID = campaign.DefaultRunID()
		}
		dir = *out
		if dir == "" {
			dir = filepath.Join("results", "campaigns", spec.RunID)
		}
	}
	// Ctrl-C cancels cleanly: the journal keeps every completed
	// injection and the run resumes with -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *addr != "" {
		runRemote(ctx, *addr, *retries, spec)
		return
	}

	// The latency sink always rides along (it feeds the end-of-run
	// summary line); the Perfetto exporter only with -trace-dir.
	wallHist := metrics.NewHistogram(metrics.ExpBuckets(0.001, 2, 14))
	var perf *obs.Perfetto
	if *traceDir != "" {
		perf = obs.NewPerfetto()
		for w := 0; w < spec.WorkerCount(); w++ {
			perf.NameTrack(w, fmt.Sprintf("worker-%d", w))
		}
	}
	tally := &perfTally{}
	eng := &campaign.Engine{
		Spec:     spec,
		Factory:  opts.CampaignFactory(),
		Progress: progressLine(),
		Prepare:  tally.prepare,
		Audit:    *audit,
		Obs:      obs.Tee(latencySink{wallHist}, perfettoSink(perf)),
	}

	outcome, err := eng.Run(ctx, dir, *resume != "")
	fmt.Fprintln(os.Stderr)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "fhcampaign: interrupted; completed injections are journaled at:\n  %s\nresume with:\n  fhcampaign -resume %s\n",
				filepath.Join(dir, campaign.JournalName), dir)
			os.Exit(130)
		}
		fatal(err)
	}

	// Render the summary through the same harness tables figure
	// generation uses.
	sum := outcome.Summary
	benches := spec.Benchmarks
	schemeList := cellSchemes(spec, benches)
	if len(schemeList) > 0 {
		fmt.Println(harness.CoverageTableFromSummary("coverage",
			"SDC coverage (fraction of would-be-SDC faults corrected or detected)",
			sum, benches, schemeList).Render())
		fmt.Println(harness.FPTableFromSummary("fp-rate",
			"False-positive rate (golden-run detector actions per committed instruction)",
			sum, benches, append([]harness.Scheme{campaign.BaselineScheme}, schemeList...)).Render())
	}
	printCellSpecs(spec)
	if n := wallHist.Count(); n > 0 {
		fmt.Printf("injection wall time: p50=%s p95=%s max=%s (n=%d)\n",
			secs(wallHist.Quantile(0.5)), secs(wallHist.Quantile(0.95)), secs(wallHist.Max()), n)
	}
	pf := tally.total()
	fmt.Printf("acceleration: runs=%d early_exits=%d fork_saved_frac=%.3f audits=%d audit_violations=%d\n",
		pf.Runs, pf.EarlyExits, pf.ForkSavedFrac(), pf.Audits, pf.AuditViolations)
	if perf != nil {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err)
		}
		tf := filepath.Join(*traceDir, "trace.json")
		if err := perf.WriteFile(tf); err != nil {
			fatal(err)
		}
		fmt.Printf("trace:  %s (%d events; open in ui.perfetto.dev)\n", tf, perf.Len())
	}
	// Executed-injection throughput (resumed injections are replayed
	// from the journal, not simulated, so they don't count).
	injRate := ""
	if executed := len(outcome.Cells)*sum.Injections - outcome.Resumed; executed > 0 && outcome.Elapsed > 0 {
		injRate = fmt.Sprintf(", %.1f inj/s", float64(executed)/outcome.Elapsed.Seconds())
	}
	fmt.Printf("bundle: %s (%d cells, %d injections/cell, %d resumed, wall clock %s%s)\n",
		dir, len(outcome.Cells), sum.Injections, outcome.Resumed, outcome.Elapsed.Round(time.Millisecond), injRate)
	fmt.Printf("report: %s\n", filepath.Join(dir, campaign.ReportName))
}

// perfTally sums fault.Perf over every cell a local run prepares, for
// the acceleration line. It hooks Engine.Prepare, and it folds a
// cell's counters into the sum once all of the cell's runs are in,
// at the next preparation, so it keeps no finished cell's golden state
// alive. A cell resumed in part never completes here; it is folded at
// the end.
type perfTally struct {
	mu   sync.Mutex
	sum  fault.Perf
	live []*fault.Prepared
}

func (t *perfTally) prepare(_ campaign.Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
	p, err := fault.Prepare(mk, cfg)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.live = slices.DeleteFunc(t.live, func(q *fault.Prepared) bool {
		pf := q.Perf()
		if pf.Runs < uint64(q.Config().Injections) {
			return false
		}
		t.sum = t.sum.Add(pf)
		return true
	})
	t.live = append(t.live, p)
	return p, nil
}

// total is the sum over every cell prepared; call it after the run.
func (t *perfTally) total() fault.Perf {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := t.sum
	for _, p := range t.live {
		sum = sum.Add(p.Perf())
	}
	return sum
}

// latencySink folds closed injection spans into a histogram for the
// end-of-run wall-time summary line.
type latencySink struct{ h *metrics.Histogram }

func (l latencySink) Event(ev obs.Event) {
	if ev.Kind == obs.KindEnd && ev.Name == "injection" && ev.Arg != "cancelled" {
		l.h.Observe(ev.Dur.Seconds())
	}
}

// perfettoSink adapts a possibly-nil *Perfetto to the nil-interface
// convention obs.Tee expects.
func perfettoSink(p *obs.Perfetto) obs.Sink {
	if p == nil {
		return nil
	}
	return p
}

// secs renders a quantile (in seconds) as a rounded duration.
func secs(v float64) time.Duration {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond)
}

// runRemote submits the spec to a fhserved daemon, follows the
// progress stream, and renders the daemon's summary through the same
// tables the local path uses. Transient failures (daemon restarts,
// 429 admission rejects, dropped event streams) are retried; Submit is
// idempotent because the daemon deduplicates by spec hash.
func runRemote(ctx context.Context, addr string, retries int, spec campaign.Spec) {
	cl := server.NewClient(addr)
	cl.Retries = retries
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		fatal(err)
	}
	if st.CacheHit {
		fmt.Fprintf(os.Stderr, "fhcampaign: spec matches job %s (%s); attaching\n", st.ID, st.State)
	} else {
		fmt.Fprintf(os.Stderr, "fhcampaign: submitted job %s\n", st.ID)
	}

	progress := progressLine()
	final, err := cl.Watch(ctx, st.ID, func(ev server.Event) {
		if ev.Total > 0 {
			progress(ev.Done, ev.Total)
		}
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "fhcampaign: detached; the daemon keeps running job %s\n", st.ID)
			os.Exit(130)
		}
		fatal(err)
	}
	if final.State != server.StateDone {
		fatal(fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error))
	}

	sum, err := cl.Summary(ctx, final.ID)
	if err != nil {
		fatal(err)
	}
	benches := spec.Benchmarks
	schemeList := cellSchemes(spec, benches)
	if len(schemeList) > 0 {
		fmt.Println(harness.CoverageTableFromSummary("coverage",
			"SDC coverage (fraction of would-be-SDC faults corrected or detected)",
			sum, benches, schemeList).Render())
		fmt.Println(harness.FPTableFromSummary("fp-rate",
			"False-positive rate (golden-run detector actions per committed instruction)",
			sum, benches, append([]harness.Scheme{campaign.BaselineScheme}, schemeList...)).Render())
	}
	printCellSpecs(spec)
	fmt.Printf("job: %s (run %s, %d injections/cell)\n", final.ID, final.RunID, sum.Injections)
	fmt.Printf("bundle: %s/v1/campaigns/%s/bundle/\n", cl.Base, final.ID)
}

// optimizeFlags carries the flag values the -optimize path consumes.
type optimizeFlags struct {
	bench, workloads, schemes string
	injections                int
	seed                      uint64
	budget                    int
	weights, params           string
	runID, out, addr          string
	retries                   int
	verbose                   bool
}

// runOptimize executes the plan/execute/score stack as a Pareto
// search: locally through the harness evaluator, or on a daemon via
// POST /v1/optimize when -addr is set. Either way the artifacts land
// in the output directory and the front prints to stdout.
func runOptimize(opts harness.Options, of optimizeFlags) {
	benches, err := benchList(of.bench, of.workloads)
	if err != nil {
		fatal(err)
	}
	base, err := scheme.ParseList(of.schemes)
	if err != nil {
		fatal(err)
	}
	weights, err := search.ParseWeights(of.weights)
	if err != nil {
		fatal(err)
	}
	params, err := search.CanonicalParams(base, strings.Split(of.params, ","))
	if err != nil {
		fatal(err)
	}
	if of.injections > 0 {
		opts.Fault.Injections = of.injections
	}
	// -seed drives the mutation RNG only; the fault seed stays at the
	// harness (or daemon) default so local and -addr runs of the same
	// request score identically. A zero seed defaults to the fault seed
	// so a bare run is still fully pinned.
	searchSeed := of.seed
	if searchSeed == 0 {
		searchSeed = opts.Fault.Seed
	}
	runID := of.runID
	if runID == "" {
		runID = campaign.DefaultRunID()
	}
	dir := of.out
	if dir == "" {
		dir = filepath.Join("results", "optimize", runID)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var rep *search.Report
	if of.addr != "" {
		var specs []string
		for _, sp := range base {
			specs = append(specs, sp.String())
		}
		cl := server.NewClient(of.addr)
		cl.Retries = of.retries
		rep, err = cl.Optimize(ctx, server.OptimizeRequest{
			Benchmarks: benches,
			Schemes:    specs,
			Budget:     of.budget,
			Seed:       searchSeed,
			Weights:    weights.String(),
			Params:     params,
			Injections: of.injections,
		})
		if err != nil {
			fatal(err)
		}
	} else {
		cfg := search.Config{
			Seed:    searchSeed,
			Budget:  of.budget,
			Weights: weights,
			Base:    base,
			Params:  params,
			Eval:    search.CampaignEval(opts.NewEvaluator(nil, progressLine()), benches),
		}
		if of.verbose {
			cfg.Log = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
			}
		}
		res, err := search.Run(ctx, cfg)
		fmt.Fprintln(os.Stderr)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "fhcampaign: interrupted (searches have no resume; rerun with the same seed)")
				os.Exit(130)
			}
			fatal(err)
		}
		rep = search.NewReport(runID, benches, cfg, res)
	}

	if err := rep.WriteArtifacts(dir); err != nil {
		fatal(err)
	}
	front := rep.Front()
	fmt.Printf("pareto front: %d non-dominated of %d evaluated (%d rounds, seed %d)\n",
		len(front), rep.Evaluated, rep.Rounds, rep.Seed)
	for _, p := range front {
		fmt.Printf("  %-32s coverage=%.4f fp=%.6f energy=%+.4f perf=%+.4f fitness=%.4f\n",
			p.Spec, p.Coverage, p.FPRate, p.EnergyOverhead, p.PerfOverhead, p.Fitness)
	}
	fmt.Printf("weights: %s\n", rep.Weights.String())
	fmt.Printf("artifacts: %s\n", dir)
}

// cellSchemes lists the non-baseline scheme specs of the campaign in
// cell order, as the table column keys.
func cellSchemes(spec campaign.Spec, benches []string) []harness.Scheme {
	var out []harness.Scheme
	for _, c := range spec.Cells() {
		if c.Bench == benches[0] && c.Scheme != campaign.BaselineSpec {
			out = append(out, harness.Scheme(c.Scheme.String()))
		}
	}
	return out
}

// printCellSpecs prints every distinct scheme and workload of the
// campaign with its canonical spec and the fully-resolved parameter
// list, so sweep bundles are self-describing ("which tcam size — or
// stride — was this cell again?").
func printCellSpecs(spec campaign.Spec) {
	seen := map[string]bool{}
	fmt.Println("cells (canonical -> resolved):")
	for _, c := range spec.Cells() {
		sp := c.Scheme.String()
		if seen[sp] {
			continue
		}
		seen[sp] = true
		resolved, err := scheme.Resolved(c.Scheme)
		if err != nil {
			resolved = sp
		}
		fmt.Printf("  %-28s %s\n", sp, resolved)
	}
	fmt.Println("workloads (canonical -> resolved):")
	seenB := map[string]bool{}
	for _, c := range spec.Cells() {
		if seenB[c.Bench] {
			continue
		}
		seenB[c.Bench] = true
		resolved := c.Bench
		if wgen.IsGenerated(c.Bench) {
			if r, err := wgen.Resolved(wgen.FromString(c.Bench)); err == nil {
				resolved = r
			}
		}
		fmt.Printf("  %-28s %s\n", c.Bench, resolved)
	}
}

// benchList resolves the -bench/-workloads flags: -workloads (spec
// syntax, sweeps fan out) overrides -bench; "all" is the full Table-1
// suite. Every entry comes back validated and canonical.
func benchList(bench, workloadSpecs string) ([]string, error) {
	raw := workloadSpecs
	if raw == "" {
		raw = bench
	}
	if raw == "all" || raw == "" {
		var names []string
		for _, bm := range workload.All() {
			names = append(names, bm.Name)
		}
		return names, nil
	}
	items, err := workload.SplitList(raw)
	if err != nil {
		return nil, err
	}
	return workload.ExpandSpecs(items)
}

// progressLine returns a live completed/total meter on stderr,
// throttled to at most ~1000 redraws per campaign.
func progressLine() func(done, total int) {
	return func(done, total int) {
		step := total / 1000
		if step < 1 {
			step = 1
		}
		if done%step == 0 || done == total {
			fmt.Fprintf(os.Stderr, "\r%d/%d injections (%.1f%%)", done, total, 100*float64(done)/float64(total))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fhcampaign:", err)
	os.Exit(1)
}

// Command fhsim runs a single benchmark on a single scheme and prints
// detailed pipeline, cache, detector, and energy statistics — the
// low-level inspection tool behind the experiment harness.
//
// Usage:
//
//	fhsim -bench mcf -scheme faulthound -commits 50000
//	fhsim -bench apache -scheme pbfs-biased -threads 2
//	fhsim -bench bzip2 -trace out.json -trace-cycles 3000   # Perfetto trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"faulthound/internal/buildinfo"
	"faulthound/internal/campaign"
	"faulthound/internal/detect"
	"faulthound/internal/energy"
	"faulthound/internal/harness"
	"faulthound/internal/mem"
	"faulthound/internal/obs"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
	"faulthound/internal/stats"
	"faulthound/internal/wgen"
	"faulthound/internal/workload"
)

func main() {
	var (
		bench     = flag.String("bench", "bzip2", "benchmark name (see faulthound -experiment table1)")
		workloadF = flag.String("workload", "", "workload spec overriding -bench: a benchmark name or generated spec like \"gen?stride=64,chase=4\" (generators: "+wgen.Usage()+")")
		schemeF   = flag.String("scheme", "faulthound", "scheme spec, optionally parameterized like \"faulthound?tcam=16,delay=6\" (known: "+scheme.Usage()+")")
		list      = flag.Bool("list-schemes", false, "print the scheme registry (names, parameters, defaults) and exit")
		listW     = flag.Bool("list-workloads", false, "print the workload catalogue (benchmarks + generators, parameters, defaults) and exit")
		record    = flag.String("record", "", "record thread 0's committed load/store stream to this artifact file and exit (prints the stream hash)")
		recordOps = flag.Int("record-ops", 0, "memory ops to record with -record (default 4096)")
		replayF   = flag.String("replay", "", "replay the recorded stream artifact at this path instead of -bench/-workload")
		threads   = flag.Int("threads", 2, "SMT contexts")
		commits   = flag.Uint64("commits", 30000, "per-thread committed instructions to simulate")
		warmup    = flag.Uint64("warmup", 3000, "warmup cycles before measurement")
		trace     = flag.String("trace", "", "write a Perfetto/Chrome trace-event JSON file of the first trace-cycles cycles (open in ui.perfetto.dev)")
		stages    = flag.String("trace-stages", "", "comma-separated stage filter (fetch,dispatch,issue,complete,commit,squash,replay,rollback,singleton,exception); alone, prints a text trace")
		traceN    = flag.Uint64("trace-cycles", 200, "cycles to trace (with -trace or -trace-stages)")
		asJSON    = flag.Bool("json", false, "emit the full stats block as one JSON object (scriptable runs)")
		version   = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Generator())
		return
	}
	if *list {
		fmt.Print(scheme.Describe())
		return
	}
	if *listW {
		fmt.Print(workload.Describe())
		return
	}
	bm, err := resolveWorkload(*bench, *workloadF, *replayF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fhsim:", err)
		os.Exit(1)
	}
	sp, err := scheme.Parse(*schemeF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fhsim:", err)
		os.Exit(2)
	}
	opts := harness.DefaultOptions()
	opts.Threads = *threads
	opts.MeasureCommits = *commits
	opts.WarmupCycles = *warmup

	if *record != "" {
		if err := runRecord(opts, bm, sp, *record, *recordOps); err != nil {
			fmt.Fprintln(os.Stderr, "fhsim:", err)
			os.Exit(1)
		}
		return
	}

	if *trace != "" || *stages != "" {
		if err := runTraced(opts, bm, sp, *trace, *stages, *traceN); err != nil {
			fmt.Fprintln(os.Stderr, "fhsim:", err)
			os.Exit(1)
		}
		return
	}

	run, err := opts.TimingRunSpec(bm, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fhsim:", err)
		os.Exit(1)
	}
	c := run.Core
	cycles, committed := run.Cycles, run.Committed

	ps := c.Stats()
	ms := c.MemStats()
	if *asJSON {
		if err := emitJSON(bm, *schemeF, *threads, run); err != nil {
			fmt.Fprintln(os.Stderr, "fhsim:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("benchmark        %s (%s)\n", bm.Name, bm.Suite)
	fmt.Printf("scheme           %s\n", *schemeF)
	fmt.Printf("threads          %d\n", *threads)
	fmt.Printf("cycles           %d (measured window)\n", cycles)
	fmt.Printf("committed        %d (all threads)\n", committed)
	fmt.Printf("IPC              %.3f\n", float64(committed)/float64(cycles))
	fmt.Printf("branch mispred   %.2f%%\n", c.BranchMispredictRate()*100)
	fmt.Printf("loads/stores     %d / %d\n", ps.Loads, ps.Stores)
	fmt.Printf("L1D miss rate    %.2f%%\n", 100*float64(ms.L1DMisses)/float64(stats.Max64(ms.L1DAccesses, 1)))
	fmt.Printf("L2 miss rate     %.2f%%\n", 100*float64(ms.L2Misses)/float64(stats.Max64(ms.L2Accesses, 1)))
	fmt.Printf("replay triggers  %d (uops replayed %d)\n", ps.ReplayTriggers, ps.ReplayedUops)
	fmt.Printf("rollbacks        %d (uops squashed %d)\n", ps.Rollbacks, ps.RollbackSquashedUops)
	fmt.Printf("singletons       %d (faults declared %d)\n", ps.Singletons, ps.FaultsDeclared)
	fmt.Printf("shadow ops       %d\n", ps.ShadowOps)

	if c.Detector() != nil {
		ds := run.DetectorDelta
		fmt.Printf("detector checks  %d, triggers %d, suppressed %d\n", ds.Checks, ds.Triggers, ds.Suppressed)
		fmt.Printf("detector actions replay=%d rollback=%d singleton=%d\n", ds.Replays, ds.Rollbacks, ds.Singletons)
	}
	b := run.Energy
	fmt.Printf("energy total     %.0f units\n", b.Total())
	fmt.Printf("  fetch=%.0f rename=%.0f issue=%.0f exec=%.0f regfile=%.0f\n",
		b.Fetch, b.Rename, b.Issue, b.Exec, b.RegFile)
	fmt.Printf("  lsq=%.0f caches=%.0f commit=%.0f static=%.0f shadow=%.0f detector=%.0f\n",
		b.LSQ, b.Caches, b.Commit, b.Static, b.Shadow, b.Detector)
}

// resolveWorkload picks the benchmark: a replay artifact beats
// -workload, which beats -bench. Generated specs come back with their
// canonical spec string as the benchmark name.
func resolveWorkload(bench, workloadSpec, replayPath string) (workload.Benchmark, error) {
	if replayPath != "" {
		s, err := wgen.ReadStreamFile(replayPath)
		if err != nil {
			return workload.Benchmark{}, err
		}
		w, err := wgen.FromStream(s)
		if err != nil {
			return workload.Benchmark{}, err
		}
		return workload.Benchmark{
			Name:     "replay:" + replayPath,
			Suite:    "Generated",
			Paper:    fmt.Sprintf("replay of %s (%d ops, seed %d)", s.Workload, len(s.Ops), s.Seed),
			SegBytes: w.SegBytes,
			Build:    w.Build,
		}, nil
	}
	if workloadSpec != "" {
		return workload.Resolve(workloadSpec)
	}
	return workload.Resolve(bench)
}

// runRecord runs the workload single-threaded from cycle 0 with the
// stream recorder attached, writes the artifact, and prints the
// base-independent stream hash (what round-trip checks compare).
func runRecord(opts harness.Options, bm workload.Benchmark, sp scheme.Spec, path string, ops int) error {
	c, err := opts.BuildCoreSpec(bm, sp, 1)
	if err != nil {
		return err
	}
	rec := wgen.NewRecorder(bm.Name, opts.Seed, ops)
	rec.Attach(c)
	const maxCycles = 50_000_000
	for !rec.Full() && !c.AllHalted() && c.Cycle() < maxCycles {
		c.Run(4096)
	}
	st := rec.Stream()
	if !rec.Full() {
		return fmt.Errorf("recorded only %d ops before cycle %d", len(st.Ops), c.Cycle())
	}
	if err := st.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("recorded  %s\n", bm.Name)
	fmt.Printf("ops       %d\n", len(st.Ops))
	fmt.Printf("hash      %s\n", st.Hash())
	fmt.Printf("artifact  %s\n", path)
	return nil
}

// runTraced runs the first traceN cycles under a tracer: with outFile
// set, a Perfetto/Chrome trace-event JSON file (one track per SMT
// thread, timestamps in cycles); otherwise a stage-filtered text trace
// on stdout.
func runTraced(opts harness.Options, bm workload.Benchmark, sp scheme.Spec, outFile, stages string, traceN uint64) error {
	c, err := opts.BuildCoreSpec(bm, sp, opts.Threads)
	if err != nil {
		return err
	}
	names := map[string]pipeline.TraceStage{
		"fetch": pipeline.TraceFetch, "dispatch": pipeline.TraceDispatch,
		"issue": pipeline.TraceIssue, "complete": pipeline.TraceComplete,
		"commit": pipeline.TraceCommit, "squash": pipeline.TraceSquash,
		"replay": pipeline.TraceReplay, "rollback": pipeline.TraceRollback,
		"singleton": pipeline.TraceSingleton, "exception": pipeline.TraceException,
	}
	var want []pipeline.TraceStage
	if stages != "" {
		for _, s := range strings.Split(stages, ",") {
			st, ok := names[strings.TrimSpace(s)]
			if !ok {
				return fmt.Errorf("unknown trace stage %q", s)
			}
			want = append(want, st)
		}
	}
	if outFile == "" {
		c.SetTracer(c.NewWriterTracer(os.Stdout, want...))
		for i := uint64(0); i < traceN && !c.AllHalted(); i++ {
			c.Step()
		}
		return nil
	}
	if len(want) == 0 {
		// Default to the events that stay legible at full speed; a
		// per-uop fetch/issue firehose is opt-in via -trace-stages.
		want = []pipeline.TraceStage{pipeline.TraceCommit, pipeline.TraceSquash,
			pipeline.TraceReplay, pipeline.TraceRollback, pipeline.TraceSingleton}
	}
	p := obs.NewPerfetto()
	for t := 0; t < opts.Threads; t++ {
		p.NameTrack(t, fmt.Sprintf("smt-%d", t))
	}
	c.SetTracer(p.PipelineTracer(want...))
	for i := uint64(0); i < traceN && !c.AllHalted(); i++ {
		c.Step()
	}
	if err := p.WriteFile(outFile); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fhsim: wrote %d trace events to %s (open in ui.perfetto.dev)\n", p.Len(), outFile)
	return nil
}

// emitJSON writes the run's full stats block as a single JSON object on
// stdout, marshaled the same way the campaign subsystem marshals its
// summary artifacts (stable keys, indented, provenance-stamped).
func emitJSON(bm workload.Benchmark, schemeSpec string, threads int, run harness.Run) error {
	c := run.Core
	ps, ms := c.Stats(), c.MemStats()
	obj := struct {
		Provenance  campaign.Provenance `json:"provenance"`
		Benchmark   string              `json:"benchmark"`
		Suite       string              `json:"suite"`
		Scheme      string              `json:"scheme"`
		Threads     int                 `json:"threads"`
		Cycles      uint64              `json:"cycles"`
		Committed   uint64              `json:"committed"`
		IPC         float64             `json:"ipc"`
		MispredRate float64             `json:"branch_mispredict_rate"`
		FPRate      float64             `json:"fp_rate"`
		Pipeline    pipeline.Stats      `json:"pipeline"`
		Memory      mem.HierarchyStats  `json:"memory"`
		Detector    detect.Stats        `json:"detector"`
		Energy      energy.Breakdown    `json:"energy"`
		EnergyTotal float64             `json:"energy_total"`
	}{
		Provenance:  campaign.NewProvenance(campaign.DefaultRunID()),
		Benchmark:   bm.Name,
		Suite:       bm.Suite,
		Scheme:      schemeSpec,
		Threads:     threads,
		Cycles:      run.Cycles,
		Committed:   run.Committed,
		IPC:         float64(run.Committed) / float64(stats.Max64(run.Cycles, 1)),
		MispredRate: c.BranchMispredictRate(),
		FPRate:      run.FPRate(),
		Pipeline:    ps,
		Memory:      ms,
		Detector:    run.DetectorDelta,
		Energy:      run.Energy,
		EnergyTotal: run.Energy.Total(),
	}
	out, err := campaign.MarshalJSON(obj)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(out)
	return err
}

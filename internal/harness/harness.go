// Package harness runs the paper's experiments: it builds cores for
// every (benchmark, scheme) pair and regenerates each table and figure
// of the evaluation section (DESIGN.md, experiment index). All runs are
// deterministic in Options.Seed.
package harness

import (
	"fmt"
	"os"

	"faulthound/internal/campaign"
	"faulthound/internal/detect"
	"faulthound/internal/energy"
	"faulthound/internal/fault"
	"faulthound/internal/pipeline"
	"faulthound/internal/pspec"
	"faulthound/internal/scheme"
	"faulthound/internal/workload"
)

// Scheme identifies one fault-tolerance configuration under test: a
// scheme spec string resolved by the internal/scheme registry. The
// constants below name the plain (all-defaults) schemes of the paper's
// evaluation; parameterized specs like "faulthound?tcam=16" are equally
// valid values.
type Scheme string

// Schemes of the evaluation.
const (
	Baseline     Scheme = "baseline"
	PBFS         Scheme = "pbfs"
	PBFSBiased   Scheme = "pbfs-biased"
	FHBackend    Scheme = "faulthound-backend"
	FaultHound   Scheme = "faulthound"
	SRTIso       Scheme = "srt-iso"
	SRTFull      Scheme = "srt"
	FHBE         Scheme = "fh-be" // alias of FHBackend in Figure 12 naming
	FHBENoLSQ    Scheme = "fh-be-nolsq"
	FHBENo2Level Scheme = "fh-be-no2level"
	FHBENoClust  Scheme = "fh-be-nocluster-no2level"
	FHBEFullRB   Scheme = "fh-be-full-rollback"
)

// Options parameterize an experiment run.
type Options struct {
	// Threads is the SMT context count for timing/energy runs (the
	// paper runs two copies per core).
	Threads int
	// MeasureCommits is the per-thread committed-instruction budget of
	// a timing run.
	MeasureCommits uint64
	// WarmupCycles precede measurement in timing runs.
	WarmupCycles uint64
	// MaxCycles bounds any single run.
	MaxCycles uint64
	// Fault configures injection campaigns (always single-threaded; see
	// DESIGN.md).
	Fault fault.Config
	// DetectorWarmupInstr fast-forwards detector filters over the
	// architectural value stream before timing measurement (steady
	// state, standing in for the paper's long simulations).
	DetectorWarmupInstr uint64
	// SRTCoverage scales SRT-iso (the paper matches FaultHound's
	// coverage; 0.75 is the headline number).
	SRTCoverage float64
	// Seed drives workload data initialization.
	Seed uint64
	// Benchmarks restricts the run (nil = all of Table 1).
	Benchmarks []string
	// Workers sizes the worker pools of fault campaigns and of the
	// figures' timing runs (<= 0 means GOMAXPROCS). Results are
	// bit-identical for any value.
	Workers int
	// Verbose enables progress lines on stderr.
	Verbose bool
}

// DefaultOptions returns the full-scale configuration.
func DefaultOptions() Options {
	return Options{
		Threads:             2,
		MeasureCommits:      20000,
		WarmupCycles:        3000,
		MaxCycles:           20_000_000,
		DetectorWarmupInstr: 1_000_000,
		Fault:               fault.DefaultConfig(),
		SRTCoverage:         0.75,
		Seed:                1,
	}
}

// QuickOptions returns a scaled-down configuration for tests and smoke
// runs.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Threads = 1
	o.MeasureCommits = 4000
	o.WarmupCycles = 1000
	o.Fault.Injections = 60
	o.Fault.WarmupCycles = 1500
	o.Fault.MaxCyclesPerRun = 20000
	o.DetectorWarmupInstr = 100_000
	o.Fault.DetectorWarmupInstr = 100_000
	return o
}

// benchmarks resolves the benchmark list.
func (o Options) benchmarks() ([]workload.Benchmark, error) {
	if len(o.Benchmarks) == 0 {
		return workload.All(), nil
	}
	var out []workload.Benchmark
	for _, n := range o.Benchmarks {
		b, err := workload.Resolve(n)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// KnownSchemes lists every scheme name the harness accepts, derived
// from the registry in registration order.
func KnownSchemes() []Scheme {
	names := scheme.Names()
	out := make([]Scheme, len(names))
	for i, n := range names {
		out[i] = Scheme(n)
	}
	return out
}

// ValidScheme reports whether s parses as a scheme spec against the
// registry.
func ValidScheme(s Scheme) bool {
	return scheme.Valid(string(s))
}

// SchemeEnv is the host-tunable view the options hand the registry's
// factories (SRT-iso coverage matching).
func (o Options) SchemeEnv() scheme.Env {
	return scheme.Env{SRTCoverage: o.SRTCoverage}
}

// BuildCore constructs a core for (benchmark, scheme) with the given
// thread count. The scheme is a spec string ("faulthound",
// "faulthound?tcam=16,delay=6") resolved by the registry.
func (o Options) BuildCore(bm workload.Benchmark, s Scheme, threads int) (*pipeline.Core, error) {
	sp, err := scheme.Parse(string(s))
	if err != nil {
		return nil, err
	}
	return o.BuildCoreSpec(bm, sp, threads)
}

// BuildCoreSpec is BuildCore over an already-parsed scheme spec — the
// form the campaign engine's cells carry.
func (o Options) BuildCoreSpec(bm workload.Benchmark, sp scheme.Spec, threads int) (*pipeline.Core, error) {
	inst, err := scheme.Build(sp, o.SchemeEnv())
	if err != nil {
		return nil, err
	}
	cfg := pipeline.DefaultConfig(threads)
	if inst.Configure != nil {
		inst.Configure(&cfg)
	}
	var det detect.Detector
	if inst.NewDetector != nil {
		det = inst.NewDetector()
	}
	programs := workload.Programs(bm, threads, o.Seed)
	return pipeline.New(cfg, programs, det)
}

// MakeCore returns a deterministic constructor for fault campaigns
// (single-threaded; see DESIGN.md).
func (o Options) MakeCore(bm workload.Benchmark, s Scheme) func() *pipeline.Core {
	return func() *pipeline.Core {
		c, err := o.BuildCore(bm, s, 1)
		if err != nil {
			panic(err)
		}
		return c
	}
}

// Run is the outcome of one timing measurement: the finished core plus
// the cycle, commit, and detector-action deltas over the measured
// window (excluding warmup).
type Run struct {
	Core          *pipeline.Core
	Cycles        uint64
	Committed     uint64
	DetectorDelta detect.Stats
}

// FPRate returns the false-positive action rate of the measured window:
// detector-initiated replays, rollbacks, and singleton re-executions
// per committed instruction.
func (r Run) FPRate() float64 {
	if r.Committed == 0 {
		return 0
	}
	d := r.DetectorDelta
	return float64(d.Replays+d.Rollbacks+d.Singletons) / float64(r.Committed)
}

// TimingRun measures one (benchmark, scheme) pair: detector fast-
// forward, pipeline warmup, then run to the per-thread commit budget.
func (o Options) TimingRun(bm workload.Benchmark, s Scheme) (Run, error) {
	sp, err := scheme.Parse(string(s))
	if err != nil {
		return Run{}, err
	}
	return o.TimingRunSpec(bm, sp)
}

// TimingRunSpec is TimingRun over an already-parsed scheme spec — the
// form campaign cells and the search evaluator carry.
func (o Options) TimingRunSpec(bm workload.Benchmark, sp scheme.Spec) (Run, error) {
	c, err := o.BuildCoreSpec(bm, sp, o.Threads)
	if err != nil {
		return Run{}, err
	}
	c.WarmDetector(o.DetectorWarmupInstr)
	c.Run(o.WarmupCycles)
	startCycles := c.Cycle()
	startCommits := c.CommittedTotal()
	ds0 := c.DetectorStats()
	target := c.Committed(0) + o.MeasureCommits
	if !c.RunUntilCommits(0, target, o.MaxCycles) {
		return Run{}, fmt.Errorf("harness: %s/%s did not reach %d commits (at %d)",
			bm.Name, sp, target, c.Committed(0))
	}
	ds := c.DetectorStats()
	return Run{
		Core:      c,
		Cycles:    c.Cycle() - startCycles,
		Committed: c.CommittedTotal() - startCommits,
		DetectorDelta: detect.Stats{
			Checks:     ds.Checks - ds0.Checks,
			Triggers:   ds.Triggers - ds0.Triggers,
			Suppressed: ds.Suppressed - ds0.Suppressed,
			Replays:    ds.Replays - ds0.Replays,
			Rollbacks:  ds.Rollbacks - ds0.Rollbacks,
			Singletons: ds.Singletons - ds0.Singletons,
		},
	}, nil
}

// TimingRunner is the harness's one timing recipe: a TimingRunSpec
// reduced to cycles, energy and false-positive rate. The paper's timing
// figures and the optimizer's overhead objectives both read it. The
// energy model's TCAM sizing follows the spec's tcam/entries parameter
// when it declares one, so the search's energy objective actually
// varies across table sizes.
func (o Options) TimingRunner() campaign.TimingRunner {
	return func(bench string, sp scheme.Spec) (campaign.TimingMetrics, error) {
		bm, err := workload.Resolve(bench)
		if err != nil {
			return campaign.TimingMetrics{}, err
		}
		run, err := o.TimingRunSpec(bm, sp)
		if err != nil {
			return campaign.TimingMetrics{}, err
		}
		model := energy.Default()
		if sc, ok := scheme.Lookup(sp.Name); ok {
			if v, verr := scheme.ValuesOf(sp); verr == nil {
			sizing:
				for _, name := range []string{"tcam", "entries"} {
					for _, p := range sc.Params {
						if p.Name == name && p.Kind == pspec.Int {
							model.TCAMEntries = v.Int(name)
							break sizing
						}
					}
				}
			}
		}
		e := model.Compute(run.Core.Stats(), run.Core.MemStats(), run.DetectorDelta).Total()
		return campaign.TimingMetrics{Cycles: run.Cycles, Energy: e, FPRate: run.FPRate()}, nil
	}
}

// progress emits a progress line when verbose.
func (o Options) progress(format string, args ...interface{}) {
	if o.Verbose {
		fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
	}
}

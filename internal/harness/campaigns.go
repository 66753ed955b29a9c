package harness

import (
	"context"

	"faulthound/internal/campaign"
	"faulthound/internal/fault"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
	"faulthound/internal/workload"
)

// This file bridges the harness to the campaign engine: figure
// generation and standalone campaign running (cmd/fhcampaign) share
// one execution path — campaign.Engine over fault.Prepared — and the
// coverage/FP tables below consume campaign summaries.

// CampaignFactory adapts this Options' core construction to the
// campaign engine: scheme specs resolve through the scheme registry,
// cores build exactly as fault campaigns always have (single-threaded;
// see DESIGN.md). Resolution errors (unknown scheme, bad parameter)
// surface here, before any injection runs. With Verbose set, each call
// (one per cell the engine prepares) prints a progress line.
func (o Options) CampaignFactory() campaign.CoreFactory {
	return func(bench string, sp scheme.Spec) (func() *pipeline.Core, error) {
		o.progress("campaign: %s/%s", bench, sp)
		bm, err := workload.Resolve(bench)
		if err != nil {
			return nil, err
		}
		if _, err := scheme.Build(sp, o.SchemeEnv()); err != nil {
			return nil, err
		}
		return func() *pipeline.Core {
			c, err := o.BuildCoreSpec(bm, sp, 1)
			if err != nil {
				panic(err)
			}
			return c
		}, nil
	}
}

// CampaignSpec builds a campaign spec from this Options: its fault
// config, seed, and worker count, over the given benchmarks and
// schemes (baseline is implicit).
func (o Options) CampaignSpec(benchmarks []string, schemes []Scheme) campaign.Spec {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = string(s)
	}
	return campaign.Spec{
		Benchmarks: benchmarks,
		Schemes:    names,
		Workers:    o.Workers,
		Fault:      o.Fault,
	}
}

// NewEvaluator builds the execute layer for these options: core
// construction through the registry, the options' fault config and
// worker pool, and TimingRunner for the timing cells. The paper's
// figures and the optimizer both run their cells through one. prepared
// may be nil (no cross-run golden sharing).
func (o Options) NewEvaluator(prepared *fault.PreparedCache, progress func(done, total int)) *campaign.Evaluator {
	return &campaign.Evaluator{
		Factory:  o.CampaignFactory(),
		Fault:    o.Fault,
		Workers:  o.Workers,
		Timing:   o.TimingRunner(),
		Prepared: prepared,
		Progress: progress,
	}
}

// RunCampaign executes a spec in memory (no artifact bundle) with this
// Options' core factory.
func (o Options) RunCampaign(spec campaign.Spec) (*campaign.Outcome, error) {
	eng := &campaign.Engine{Spec: spec, Factory: o.CampaignFactory()}
	return eng.Run(context.Background(), "", false)
}

// CoverageTableFromSummary builds a per-benchmark coverage table (the
// Figure-8a shape) from a campaign summary: one row per benchmark, one
// column per scheme, plus the overall mean.
func CoverageTableFromSummary(id, title string, sum *campaign.Summary, benchmarks []string, schemes []Scheme) *Table {
	return benchTable(id, title, benchmarks, schemeNames(schemes), func(bm string, i int) float64 {
		cov, _ := sum.Coverage(bm, string(schemes[i]))
		return cov
	})
}

// FPTableFromSummary builds a per-benchmark false-positive table from
// a campaign summary's fault-free golden-run FP rates — the campaign
// counterpart of the Figure-8b timing-run measurement.
func FPTableFromSummary(id, title string, sum *campaign.Summary, benchmarks []string, schemes []Scheme) *Table {
	return benchTable(id, title, benchmarks, schemeNames(schemes), func(bm string, i int) float64 {
		fp, _ := sum.FPRate(bm, string(schemes[i]))
		return fp
	})
}

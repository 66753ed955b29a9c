package harness

import (
	"faulthound/internal/core"
	"faulthound/internal/energy"
	"faulthound/internal/fault"
	"faulthound/internal/filter"
	"faulthound/internal/pipeline"
	"faulthound/internal/workload"
)

// The extension experiments reproduce the claims the paper makes in
// passing rather than in a numbered figure:
//
//   - Section 5.2: "leslie's low coverage across the board improves
//     with larger filters (not shown)" — ExtFilterSize.
//   - Section 3: "changing from two-bit to three-bit state machine
//     reduces the coverage from 80% to 60%" — ExtStateDepth.
//   - Section 1: full-redundancy SRT costs "13% and 56%" in
//     performance and energy — ExtFullSRT.

// customFaultHound builds a core with a customized FaultHound config.
func (o Options) customFaultHound(bm workload.Benchmark, cfg core.Config, threads int) (*pipeline.Core, error) {
	pcfg := pipeline.DefaultConfig(threads)
	programs := workload.Programs(bm, threads, o.Seed)
	return pipeline.New(pcfg, programs, core.New(cfg))
}

// ExtFilterSize sweeps the TCAM entry count on leslie3d (the paper's
// low-coverage outlier) and a locality-friendly reference benchmark.
func ExtFilterSize(o Options) (*Table, error) { return o.renderOne(extFilters) }

// filterSizes are ext-filters' TCAM sweep, one column each.
var filterSizes = []Scheme{"faulthound?tcam=8", "faulthound?tcam=16", "faulthound?tcam=32", "faulthound?tcam=64"}

func extFilters([]workload.Benchmark) figure {
	benches := []string{"leslie3d", "bzip2"}
	return figure{campaign: cells(benches, filterSizes...), render: func(p *plan) []*Table {
		t := &Table{
			ID:      "ext-filters",
			Title:   "TCAM size sensitivity: SDC coverage (Section 5.2: leslie improves with larger filters)",
			Columns: []string{"benchmark", "8 entries", "16", "32 (paper)", "64"},
		}
		for _, bm := range benches {
			row := []string{bm}
			for _, s := range filterSizes {
				row = append(row, pct(p.coverage(bm, s).Coverage))
			}
			t.AddRow(row...)
		}
		t.Notes = append(t.Notes, "paper: coverage grows with filter count, most sharply for leslie3d")
		return []*Table{t}
	}}
}

// ExtStateDepth compares the biased two-bit machine against the
// three-deep variant the paper rejects for its coverage cost.
func ExtStateDepth(o Options) (*Table, error) {
	t := &Table{
		ID:      "ext-depth",
		Title:   "Biased state machine depth: coverage and false positives (Section 3: 2-bit vs 3-bit)",
		Columns: []string{"benchmark", "cov depth-2", "cov depth-3", "fp depth-2", "fp depth-3"},
	}
	policies := []filter.Policy{filter.Biased2, filter.Biased3}
	bms, err := o.benchmarks()
	if err != nil {
		return nil, err
	}
	if len(bms) > 3 {
		bms = bms[:3]
	}
	for _, bm := range bms {
		base, err := o.runPaired(o.MakeCore(bm, Baseline), o.Fault)
		if err != nil {
			return nil, err
		}
		row := []string{bm.Name}
		var covs, fps []string
		for _, pol := range policies {
			o.progress("ext-depth: %s/%v", bm.Name, pol)
			cfg := core.DefaultConfig()
			cfg.Addr.Policy = pol
			cfg.Value.Policy = pol
			det, err := o.runPaired(func() *pipeline.Core {
				c, e := o.customFaultHound(bm, cfg, 1)
				if e != nil {
					panic(e)
				}
				return c
			}, o.Fault)
			if err != nil {
				return nil, err
			}
			covs = append(covs, pct(fault.PairCoverage(base, det).Coverage()))

			// False positives from a fault-free run with the same config.
			c, e := o.customFaultHound(bm, cfg, 1)
			if e != nil {
				return nil, e
			}
			c.WarmDetector(o.DetectorWarmupInstr)
			c.Run(o.WarmupCycles)
			ds0 := c.DetectorStats()
			n0 := c.CommittedTotal()
			c.RunUntilCommits(0, c.Committed(0)+o.MeasureCommits, o.MaxCycles)
			ds := c.DetectorStats()
			denom := float64(c.CommittedTotal() - n0)
			fps = append(fps, pct(float64(ds.Replays+ds.Rollbacks+ds.Singletons-
				ds0.Replays-ds0.Rollbacks-ds0.Singletons)/denom))
		}
		row = append(row, covs...)
		row = append(row, fps...)
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "paper: deeper bias trades coverage (80% -> 60%) for fewer false positives")
	return t, nil
}

// ExtFullSRT reproduces the introduction's full-redundancy numbers:
// "full-redundancy schemes incur high performance and energy overheads
// (our simulations show 13% and 56%, respectively)".
func ExtFullSRT(o Options) (*Table, error) { return o.renderOne(extSRT) }

func extSRT(bms []workload.Benchmark) figure {
	benches := names(bms)
	return figure{timing: cells(benches, Baseline, SRTFull), render: func(p *plan) []*Table {
		t := benchTable("ext-srt", "Full-redundancy SRT overheads (Section 1: ~13% performance, ~56% energy)",
			benches, []string{"perf overhead", "energy overhead"}, func(bm string, i int) float64 {
				srt, base := p.timing(bm, SRTFull), p.timing(bm, Baseline)
				if i == 0 {
					return slowdown(srt, base)
				}
				return energy.Overhead(srt.Energy, base.Energy)
			})
		t.Notes = append(t.Notes, "redundant copies consume issue/FU bandwidth and energy; energy cannot be hidden")
		return []*Table{t}
	}}
}

// extFigures are the extension experiments that render from a plan.
// ext-depth builds custom cores outside it.
var extFigures = []figureFunc{extFilters, extSRT}

// Extensions runs all extension experiments.
func Extensions(o Options) ([]*Table, error) {
	ts, err := o.render(extFigures...)
	if err != nil {
		return nil, err
	}
	depth, err := ExtStateDepth(o)
	if err != nil {
		return nil, err
	}
	return []*Table{ts[0], depth, ts[1]}, nil
}

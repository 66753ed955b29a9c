package harness

import (
	"faulthound/internal/energy"
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

// ExtFilterSize sweeps the TCAM entry count on leslie3d (the paper's
// low-coverage outlier) and a locality-friendly reference benchmark.
func ExtFilterSize(o Options) (*Table, error) { return o.renderOne(extFilters) }

// filterSizes are ext-filters' TCAM sweep, one column each; 32 entries
// is plain faulthound.
var filterSizes = []Scheme{"faulthound?tcam=8", "faulthound?tcam=16", FaultHound, "faulthound?tcam=64"}

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
func ExtStateDepth(o Options) (*Table, error) { return o.renderOne(extDepth) }

// depths are ext-depth's biased machines: depth 2 is plain faulthound.
var depths = []Scheme{FaultHound, "faulthound?depth=3"}

// extDepth reads coverage from campaigns and false positives from
// timing runs, Figure 8's recipes, over the run's first three
// benchmarks.
func extDepth(bms []workload.Benchmark) figure {
	benches := names(bms[:min(len(bms), 3)])
	both := cells(benches, depths...)
	return figure{campaign: both, timing: both, render: func(p *plan) []*Table {
		t := &Table{
			ID:      "ext-depth",
			Title:   "Biased state machine depth: coverage and false positives (Section 3: 2-bit vs 3-bit)",
			Columns: []string{"benchmark", "cov depth-2", "cov depth-3", "fp depth-2", "fp depth-3"},
		}
		for _, bm := range benches {
			row := []string{bm}
			for _, s := range depths {
				row = append(row, pct(p.coverage(bm, s).Coverage))
			}
			for _, s := range depths {
				row = append(row, pct(p.timing(bm, s).FPRate))
			}
			t.AddRow(row...)
		}
		t.Notes = append(t.Notes, "paper: deeper bias trades coverage (80% -> 60%) for fewer false positives")
		return []*Table{t}
	}}
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

// extFigures are the extension experiments in table order.
var extFigures = []figureFunc{extFilters, extDepth, extSRT}

// Extensions runs all extension experiments as one plan.
func Extensions(o Options) ([]*Table, error) { return o.render(extFigures...) }

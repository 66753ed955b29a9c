package harness

import (
	"fmt"

	"faulthound/internal/detect"
	"faulthound/internal/energy"
	"faulthound/internal/fault"
	"faulthound/internal/workload"
)

// Fig6 reproduces Figure 6: the percentage of values differing from the
// same instruction's previous value, per bit position, for load
// addresses, store addresses, and store values, over all benchmarks
// combined.
func Fig6(o Options) (*Table, error) {
	bms, err := o.benchmarks()
	if err != nil {
		return nil, err
	}
	type key struct {
		kind detect.Kind
		pc   uint64
	}
	var changes [3][64]uint64
	var counts [3]uint64

	for _, bm := range bms {
		o.progress("fig6: %s", bm.Name)
		c, err := o.BuildCore(bm, Baseline, 1)
		if err != nil {
			return nil, err
		}
		prev := make(map[key]uint64)
		c.SetProbe(func(ev detect.Event) {
			k := key{ev.Kind, ev.PC}
			if old, ok := prev[k]; ok {
				diff := old ^ ev.Value
				for b := 0; b < 64; b++ {
					if diff>>uint(b)&1 == 1 {
						changes[ev.Kind][b]++
					}
				}
				counts[ev.Kind]++
			}
			prev[k] = ev.Value
		})
		c.Run(o.WarmupCycles)
		c.RunUntilCommits(0, c.Committed(0)+o.MeasureCommits, o.MaxCycles)
	}

	t := &Table{
		ID:      "fig6",
		Title:   "Percent change per bit position (all benchmarks combined, log-scale in the paper)",
		Columns: []string{"bit", "load-addr %", "store-addr %", "store-value %"},
	}
	rate := func(k detect.Kind, b int) float64 {
		if counts[k] == 0 {
			return 0
		}
		return float64(changes[k][b]) / float64(counts[k]) * 100
	}
	for b := 0; b < 64; b++ {
		t.AddRow(fmt.Sprintf("%d", b),
			fmt.Sprintf("%.4f", rate(detect.LoadAddr, b)),
			fmt.Sprintf("%.4f", rate(detect.StoreAddr, b)),
			fmt.Sprintf("%.4f", rate(detect.StoreValue, b)))
	}
	// Mean changed bits per write (paper: ~3 of 64).
	var meanBits [3]float64
	for k := 0; k < 3; k++ {
		var s uint64
		for b := 0; b < 64; b++ {
			s += changes[k][b]
		}
		if counts[k] > 0 {
			meanBits[k] = float64(s) / float64(counts[k])
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"mean changed bits per value: load-addr %.2f, store-addr %.2f, store-value %.2f (paper: ~3/64 overall)",
		meanBits[0], meanBits[1], meanBits[2]))
	return t, nil
}

// Fig7 reproduces Figure 7: masked / noisy / SDC fractions of injected
// faults per benchmark, with suite means and the overall mean.
func Fig7(o Options) (*Table, error) { return o.renderOne(fig7) }

func fig7(bms []workload.Benchmark) figure {
	benches := names(bms)
	return figure{campaign: cells(benches, Baseline), render: func(p *plan) []*Table {
		t := &Table{
			ID:      "fig7",
			Title:   "Fault characterization: fraction of injected faults",
			Columns: []string{"benchmark", "masked", "noisy", "sdc"},
		}
		// row adds the mean masked, noisy and SDC fractions over benches.
		row := func(label string, benches []string) {
			cols := []string{label}
			for k := 0; k < 3; k++ {
				cols = append(cols, pct(mean(benches, func(bm string) float64 {
					c := p.cell(bm, Baseline)
					return float64([3]int{c.Masked, c.Noisy, c.SDC}[k]) / float64(c.Masked+c.Noisy+c.SDC)
				})))
			}
			t.AddRow(cols...)
		}
		var suites []string
		bySuite := map[string][]string{}
		for _, bm := range bms {
			row(bm.Name, []string{bm.Name})
			if _, ok := bySuite[bm.Suite]; !ok {
				suites = append(suites, bm.Suite)
			}
			bySuite[bm.Suite] = append(bySuite[bm.Suite], bm.Name)
		}
		for _, s := range suites {
			row("mean("+s+")", bySuite[s])
		}
		row("mean(all)", benches)
		t.Notes = append(t.Notes, "paper: ~85% masked, ~5% noisy, remainder SDC")
		return []*Table{t}
	}}
}

// fig8Schemes are the detection schemes of Figure 8.
var fig8Schemes = []Scheme{PBFS, PBFSBiased, FHBackend, FaultHound}

// Fig8a reproduces Figure 8(a): SDC coverage per benchmark for PBFS,
// PBFS-biased, FaultHound-backend, and FaultHound.
func Fig8a(o Options) (*Table, error) { return o.renderOne(fig8a) }

func fig8a(bms []workload.Benchmark) figure {
	benches := names(bms)
	return figure{campaign: cells(benches, fig8Schemes...), render: func(p *plan) []*Table {
		t := benchTable("fig8a", "SDC coverage (fraction of would-be-SDC faults corrected or detected)",
			benches, schemeNames(fig8Schemes), func(bm string, i int) float64 {
				return p.coverage(bm, fig8Schemes[i]).Coverage
			})
		t.Notes = append(t.Notes, "paper means: PBFS ~30%, PBFS-biased ~75-80%, FaultHound ~75%")
		return []*Table{t}
	}}
}

// Fig8b reproduces Figure 8(b): false-positive rates per benchmark (as
// a fraction of committed instructions) in fault-free runs.
func Fig8b(o Options) (*Table, error) { return o.renderOne(fig8b) }

func fig8b(bms []workload.Benchmark) figure {
	benches := names(bms)
	return figure{timing: cells(benches, fig8Schemes...), render: func(p *plan) []*Table {
		t := benchTable("fig8b", "False-positive rate (fraction of instructions triggering recovery, fault-free run)",
			benches, schemeNames(fig8Schemes), func(bm string, i int) float64 {
				return p.timing(bm, fig8Schemes[i]).FPRate
			})
		t.Notes = append(t.Notes, "paper means: PBFS ~0%, PBFS-biased ~8%, FaultHound ~3%")
		return []*Table{t}
	}}
}

// fig9Schemes are the performance-comparison schemes of Figure 9.
var fig9Schemes = []Scheme{PBFS, PBFSBiased, FHBackend, FaultHound, SRTIso}

// Fig9 reproduces Figure 9: performance degradation over the
// no-fault-tolerance baseline (log-scale in the paper).
func Fig9(o Options) (*Table, error) { return o.renderOne(fig9) }

func fig9(bms []workload.Benchmark) figure {
	benches := names(bms)
	return figure{timing: cells(benches, append([]Scheme{Baseline}, fig9Schemes...)...), render: func(p *plan) []*Table {
		t := benchTable("fig9", "Performance degradation vs baseline", benches, schemeNames(fig9Schemes),
			func(bm string, i int) float64 {
				return slowdown(p.timing(bm, fig9Schemes[i]), p.timing(bm, Baseline))
			})
		t.Notes = append(t.Notes,
			"paper: PBFS ~1%, PBFS-biased ~97% (full rollbacks), FaultHound ~10%, SRT-iso slightly above FaultHound")
		return []*Table{t}
	}}
}

// fig10Schemes are the energy-comparison schemes of Figure 10.
var fig10Schemes = []Scheme{FHBackend, FaultHound, SRTIso}

// Fig10 reproduces Figure 10: energy overhead over the baseline.
func Fig10(o Options) (*Table, error) { return o.renderOne(fig10) }

func fig10(bms []workload.Benchmark) figure {
	benches := names(bms)
	return figure{timing: cells(benches, append([]Scheme{Baseline}, fig10Schemes...)...), render: func(p *plan) []*Table {
		t := benchTable("fig10", "Energy overhead vs baseline", benches, schemeNames(fig10Schemes),
			func(bm string, i int) float64 {
				return energy.Overhead(p.timing(bm, fig10Schemes[i]).Energy, p.timing(bm, Baseline).Energy)
			})
		t.Notes = append(t.Notes,
			"paper: FaultHound-backend ~10%, FaultHound ~25%, SRT-iso high (extra copies cannot be hidden)")
		return []*Table{t}
	}}
}

// Fig11 reproduces Figure 11: the breakdown of would-be-SDC faults
// under full FaultHound.
func Fig11(o Options) (*Table, error) { return o.renderOne(fig11) }

func fig11(bms []workload.Benchmark) figure {
	benches := names(bms)
	bins := fault.BinNames()
	cols := make([]string, len(bins))
	for i, b := range bins {
		cols[i] = b.String()
	}
	return figure{campaign: cells(benches, FaultHound), render: func(p *plan) []*Table {
		t := benchTable("fig11", "SDC fault breakdown under FaultHound", benches, cols,
			func(bm string, i int) float64 {
				cov := p.coverage(bm, FaultHound)
				if cov.SDCBase == 0 {
					return 0
				}
				return float64(cov.Bins[cols[i]]) / float64(cov.SDCBase)
			})
		t.Notes = append(t.Notes,
			"paper: non-triggering faults ~10% of SDC; completed/committed-register faults a modest fraction; rename late-read faults uncovered")
		return []*Table{t}
	}}
}

// The Figure-12 ablations: false-positive rate (left), replay vs full
// rollback performance (middle), and LSQ coverage (right).
var (
	fig12Left   = []Scheme{FHBENoClust, FHBENo2Level, FHBackend}
	fig12Middle = []Scheme{FHBEFullRB, FHBackend}
	fig12Right  = []Scheme{FHBENoLSQ, FHBackend}
)

// Fig12 reproduces Figure 12: the isolation of FaultHound's back-end
// mechanisms — false-positive rates (left), replay vs full rollback
// performance (middle), and LSQ-coverage impact (right), overall means.
func Fig12(o Options) ([]*Table, error) { return o.render(fig12) }

func fig12(bms []workload.Benchmark) figure {
	benches := names(bms)
	timing := append(cells(benches, fig12Left...), cells(benches, append([]Scheme{Baseline}, fig12Middle...)...)...)
	return figure{campaign: cells(benches, fig12Right...), timing: timing, render: func(p *plan) []*Table {
		left := meanTable("fig12-left", "Impact of clustering and 2nd-level filter on false-positive rate (mean over benchmarks)",
			"fp-rate", benches, fig12Left, func(bm string, s Scheme) float64 { return p.timing(bm, s).FPRate })
		left.Notes = append(left.Notes, "paper: each mechanism significantly lowers the rate")
		middle := meanTable("fig12-middle", "Impact of predecessor replay on performance degradation (mean over benchmarks)",
			"perf-degradation", benches, fig12Middle, func(bm string, s Scheme) float64 {
				return slowdown(p.timing(bm, s), p.timing(bm, Baseline))
			})
		middle.Notes = append(middle.Notes,
			"paper: ~100-200 instructions per rollback vs 6-8 per replay; replay dramatically cheaper")
		right := meanTable("fig12-right", "Impact of covering the LSQ on SDC coverage (mean over benchmarks)",
			"coverage", benches, fig12Right, func(bm string, s Scheme) float64 { return p.coverage(bm, s).Coverage })
		right.Notes = append(right.Notes, "paper: LSQ coverage makes a significant difference")
		return []*Table{left, middle, right}
	}}
}

// Table1 renders the benchmark table.
func Table1() *Table {
	t := &Table{
		ID:      "table1",
		Title:   "Benchmarks (synthetic kernels substituting the paper's workloads; see DESIGN.md)",
		Columns: []string{"name", "suite", "segment", "paper run/input"},
	}
	for _, bm := range workload.All() {
		t.AddRow(bm.Name, bm.Suite, fmt.Sprintf("%d KB", bm.SegBytes>>10), bm.Paper)
	}
	return t
}

// Table2 renders the hardware-parameter table.
func Table2() *Table {
	cfg := DefaultOptions()
	pc := cfg.Threads
	t := &Table{
		ID:      "table2",
		Title:   "Hardware parameters (paper Table 2)",
		Columns: []string{"parameter", "value"},
	}
	t.AddRow("cores (simulated)", fmt.Sprintf("1 x %d-way SMT (paper: 8 cores)", pc))
	t.AddRow("fetch/decode/issue/commit", "4 wide")
	t.AddRow("ALU, Mul, FPU", "4, 2, 2")
	t.AddRow("issue queue", "40")
	t.AddRow("reorder buffer", "250")
	t.AddRow("INT, FP phys registers", "160, 64")
	t.AddRow("LSQ", "64")
	t.AddRow("delay buffer", "7 instructions")
	t.AddRow("FaultHound filters", "2 x 32-entry 64-bit TCAMs; 8-state/bit 2nd-level filter; 8-state squash machine per entry")
	t.AddRow("L1 I, L1 D", "32KB 2-way, 3 cycles")
	t.AddRow("ITLB, DTLB", "64 entries")
	t.AddRow("L2", "2MB 4-way, 20 cycles")
	return t
}

// paperFigures are the evaluation's figures after Fig6, in paper order.
var paperFigures = []figureFunc{fig7, fig8a, fig8b, fig9, fig10, fig11, fig12}

// All runs every experiment and returns the tables in paper order. The
// figures after Fig6 render from one plan, so each distinct campaign
// cell and timing run executes once.
func All(o Options) ([]*Table, error) {
	f6, err := Fig6(o)
	if err != nil {
		return nil, err
	}
	figs, err := o.render(paperFigures...)
	if err != nil {
		return nil, err
	}
	return append([]*Table{Table1(), Table2(), f6}, figs...), nil
}

package harness

import (
	"fmt"

	"faulthound/internal/campaign"
	"faulthound/internal/isa"
)

// Characterize measures each kernel's execution profile on the baseline
// core — the "benchmark characteristics" table that accompanies Table 1:
// IPC, memory-op fraction, FP fraction, branch fraction and mispredict
// rate, and L1D/L2 miss rates. It documents that the synthetic suite
// spans the intended behavior classes (see docs/WORKLOADS.md).
func Characterize(o Options) (*Table, error) {
	bms, err := o.benchmarks()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "workloads",
		Title: "Measured kernel characteristics (baseline core)",
		Columns: []string{"benchmark", "suite", "IPC", "mem%", "fp%", "branch%",
			"mispredict%", "L1D miss%", "L2 miss%"},
	}
	for _, bm := range bms {
		o.progress("workloads: %s", bm.Name)
		run, err := o.TimingRunSpec(bm, campaign.BaselineSpec)
		if err != nil {
			return nil, err
		}
		c := run.Core
		ps := c.Stats()
		ms := c.MemStats()
		issued := float64(ps.Issued)
		memOps := float64(ps.IssuedByClass[isa.ClassLoad] + ps.IssuedByClass[isa.ClassStore] +
			ps.IssuedByClass[isa.ClassAtomic])
		fpOps := float64(ps.IssuedByClass[isa.ClassFP])
		brOps := float64(ps.IssuedByClass[isa.ClassBranch])
		div := func(a, b float64) float64 {
			if b == 0 {
				return 0
			}
			return a / b
		}
		t.AddRow(bm.Name, bm.Suite,
			fmt.Sprintf("%.2f", float64(run.Committed)/float64(run.Cycles)),
			pct(div(memOps, issued)),
			pct(div(fpOps, issued)),
			pct(div(brOps, issued)),
			pct(c.BranchMispredictRate()),
			pct(div(float64(ms.L1DMisses), float64(ms.L1DAccesses))),
			pct(div(float64(ms.L2Misses), float64(ms.L2Accesses))))
	}
	t.Notes = append(t.Notes,
		"the paper's machine: loads/stores ~25% of instructions, issue rates well under 2/cycle (Section 3.5)")
	return t, nil
}

package campaign

import (
	"context"
	"fmt"

	"faulthound/internal/energy"
	"faulthound/internal/fault"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
)

// TimingMetrics is one cell's fault-free timing run: total cycles to
// the measurement horizon, the energy model's total for the run, and
// its false-positive rate (detector actions per committed instruction
// over the measured window). It feeds the execute layer's perf- and
// energy-overhead objectives and the paper's timing figures.
type TimingMetrics struct {
	Cycles uint64  `json:"cycles"`
	Energy float64 `json:"energy"`
	FPRate float64 `json:"fp_rate"`
}

// TimingRunner measures one benchmark×scheme cell's fault-free timing
// run. The harness supplies the standard implementation
// (harness.Options.TimingRunner); the engine stays independent of it.
type TimingRunner func(bench string, sp scheme.Spec) (TimingMetrics, error)

// CellMetrics is the execute layer's verdict on one cell: the
// campaign summary plus the overhead objectives a search driver
// scores. Overheads are relative to the benchmark's baseline cell
// (zero when no TimingRunner is configured, and zero for baseline
// cells by construction).
type CellMetrics struct {
	CellSummary
	// EnergyOverhead is (scheme − baseline) / baseline energy for the
	// fault-free timing run (the Figure-10 recipe).
	EnergyOverhead float64 `json:"energy_overhead"`
	// PerfOverhead is cycles/baselineCycles − 1 for the fault-free
	// timing run (the Figure-9 recipe).
	PerfOverhead float64 `json:"perf_overhead"`
}

// cellRun is one memoized cell execution: the raw campaign and the
// golden-run false-positive rate.
type cellRun struct {
	camp   *fault.Campaign
	fpRate float64
}

// Evaluator is the execute layer: it runs batches of cells through the
// engine and returns per-cell metrics. Raw campaigns and timing runs
// are memoized by cell identity (canonical scheme spec), so a search
// driver that re-proposes a configuration — or keeps pairing new
// schemes against the same baseline — gets cache hits instead of
// re-injection. An Evaluator is driven by one goroutine at a time; the
// parallelism lives inside the engine batches it runs.
type Evaluator struct {
	// Factory builds cores per cell (required).
	Factory CoreFactory
	// Fault parameterizes every batch; all batches share one seed so
	// coverage pairing stays meaningful across rounds.
	Fault fault.Config
	// Workers sizes the engine pool; <= 0 means GOMAXPROCS. Metrics do
	// not depend on it.
	Workers int
	// Timing measures fault-free perf/energy per cell; nil leaves the
	// overhead objectives at zero.
	Timing TimingRunner
	// Prepared, when non-nil, shares golden preparations with other
	// engine users (the serving daemon's cache).
	Prepared *fault.PreparedCache
	// Progress receives engine progress for cells actually executed.
	Progress func(done, total int)

	runs    map[Cell]cellRun
	timings map[Cell]TimingMetrics
}

// Evaluated reports how many distinct cells the evaluator has executed
// (including baselines) — the size of its campaign memo.
func (ev *Evaluator) Evaluated() int { return len(ev.runs) }

// Evaluate runs the batch and returns one CellMetrics per input cell,
// in input order. Each cell's benchmark baseline is added to the plan
// automatically (coverage and overheads are defined against it);
// previously-evaluated cells are served from the memo, so only the
// novel remainder reaches the engine.
func (ev *Evaluator) Evaluate(ctx context.Context, cells []Cell) ([]CellMetrics, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	if ev.runs == nil {
		ev.runs = make(map[Cell]cellRun)
		ev.timings = make(map[Cell]TimingMetrics)
	}

	// Plan the novel work in deterministic input order: each cell's
	// baseline first (pairing basis), then the cell itself.
	var needed StaticCells
	queued := make(map[Cell]bool)
	want := func(c Cell) {
		if _, ok := ev.runs[c]; ok || queued[c] {
			return
		}
		queued[c] = true
		needed = append(needed, c)
	}
	for _, c := range cells {
		want(Cell{c.Bench, BaselineSpec})
		want(c)
	}

	if len(needed) > 0 {
		eng := &Engine{
			Spec:     Spec{Workers: ev.Workers, Fault: ev.Fault},
			Factory:  ev.Factory,
			Source:   needed,
			Progress: ev.Progress,
		}
		if ev.Prepared != nil {
			eng.Prepare = func(c Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
				return ev.Prepared.Get(fault.PreparedKey{Bench: c.Bench, Scheme: c.Scheme.String(), Cfg: cfg}, mk)
			}
		}
		out, err := eng.Run(ctx, "", false)
		if err != nil {
			return nil, err
		}
		for i, c := range out.Cells {
			ev.runs[c] = cellRun{camp: out.Campaigns[i], fpRate: out.Summary.Cells[i].FPRate}
		}
	}

	// Timing runs for overheads, memoized like campaigns.
	timing := func(c Cell) (TimingMetrics, error) {
		if tm, ok := ev.timings[c]; ok {
			return tm, nil
		}
		tm, err := ev.Timing(c.Bench, c.Scheme)
		if err != nil {
			return TimingMetrics{}, fmt.Errorf("campaign: timing %s: %w", c, err)
		}
		ev.timings[c] = tm
		return tm, nil
	}

	out := make([]CellMetrics, len(cells))
	for i, c := range cells {
		run, ok := ev.runs[c]
		if !ok {
			return nil, fmt.Errorf("campaign: cell %s missing after evaluation", c)
		}
		base := ev.runs[Cell{c.Bench, BaselineSpec}]
		m := CellMetrics{CellSummary: summarizeCell(c, run.camp, base.camp, run.fpRate)}
		if ev.Timing != nil && c.Scheme != BaselineSpec {
			bt, err := timing(Cell{c.Bench, BaselineSpec})
			if err != nil {
				return nil, err
			}
			st, err := timing(c)
			if err != nil {
				return nil, err
			}
			if bt.Cycles > 0 {
				m.PerfOverhead = float64(st.Cycles)/float64(bt.Cycles) - 1
			}
			m.EnergyOverhead = energy.Overhead(st.Energy, bt.Energy)
		}
		out[i] = m
	}
	return out, nil
}

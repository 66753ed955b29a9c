package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"faulthound/internal/fault"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
)

// TimingMetrics is one cell's fault-free timing run: total cycles to
// the measurement horizon, the energy model's total for the run, and
// its false-positive rate (detector actions per committed instruction
// over the measured window). It feeds the optimizer's perf- and
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

// cellRun is one memoized campaign cell: its summary, paired against
// its benchmark's baseline, and for a baseline cell the campaign that
// later Runs pair against. A scheme cell's campaign is not kept.
type cellRun struct {
	sum  CellSummary
	base *fault.Campaign
}

// Evaluator is the execute layer: it runs sets of cells, fault
// campaigns through the engine and fault-free timing runs through
// Timing, and serves their results from a memo keyed by cell identity
// (canonical scheme spec). A cell that a later Run names again, such
// as a search re-proposing a configuration or pairing new schemes
// against the same baseline, is not run again. An Evaluator is driven
// by one goroutine at a time; the parallelism lives inside Run.
type Evaluator struct {
	// Factory builds cores per cell (required).
	Factory CoreFactory
	// Fault parameterizes every campaign; all runs share one seed so
	// coverage pairing stays meaningful across them.
	Fault fault.Config
	// Workers sizes the engine pool and the timing goroutines; <= 0
	// means GOMAXPROCS. Results do not depend on it.
	Workers int
	// Timing measures a cell's fault-free timing run (required when Run
	// is given timing cells).
	Timing TimingRunner
	// Prepared, when non-nil, shares golden preparations with other
	// engine users (the serving daemon's cache).
	Prepared *fault.PreparedCache
	// Progress receives engine progress for cells actually executed.
	Progress func(done, total int)

	runs    map[Cell]cellRun
	timings map[Cell]TimingMetrics
}

// Run executes the cells the evaluator has not run before. The
// campaign cells run as one engine run in the given order, each behind
// its benchmark's baseline, which coverage pairs against. Then every
// distinct timing cell runs once on Workers goroutines.
func (ev *Evaluator) Run(ctx context.Context, camp, timing []Cell) error {
	if ev.runs == nil {
		ev.runs = make(map[Cell]cellRun)
		ev.timings = make(map[Cell]TimingMetrics)
	}
	var todo []Cell
	queued := make(map[Cell]bool)
	for _, c := range timing {
		if _, ok := ev.timings[c]; !ok && !queued[c] {
			queued[c] = true
			todo = append(todo, c)
		}
	}
	if len(todo) > 0 && ev.Timing == nil {
		return fmt.Errorf("campaign: evaluator has no timing runner for %s", todo[0])
	}
	if err := ev.runCampaigns(ctx, camp); err != nil {
		return err
	}

	// Results land by index, so they do not depend on which goroutine
	// finishes first.
	out := make([]TimingMetrics, len(todo))
	errs := make([]error, len(todo))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := min(Spec{Workers: ev.Workers}.WorkerCount(), len(todo)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue
				}
				if out[i], errs[i] = ev.Timing(todo[i].Bench, todo[i].Scheme); errs[i] != nil {
					errs[i] = fmt.Errorf("campaign: timing %s: %w", todo[i], errs[i])
				}
			}
		}()
	}
	for i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, c := range todo {
		ev.timings[c] = out[i]
	}
	return nil
}

// runCampaigns runs the campaign cells not yet in the memo, each
// benchmark's baseline ahead of its first scheme cell, as one engine
// run.
func (ev *Evaluator) runCampaigns(ctx context.Context, camp []Cell) error {
	var todo []Cell
	queued := make(map[Cell]bool)
	for _, c := range camp {
		for _, c := range []Cell{{c.Bench, BaselineSpec}, c} {
			if _, ok := ev.runs[c]; !ok && !queued[c] {
				queued[c] = true
				todo = append(todo, c)
			}
		}
	}
	if len(todo) == 0 {
		return nil
	}
	eng := &Engine{
		Spec:     Spec{Workers: ev.Workers, Fault: ev.Fault},
		Factory:  ev.Factory,
		Cells:    todo,
		Progress: ev.Progress,
	}
	if ev.Prepared != nil {
		eng.Prepare = func(c Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
			return ev.Prepared.Get(fault.PreparedKey{Bench: c.Bench, Scheme: c.Scheme.String(), Cfg: cfg}, mk)
		}
	}
	out, err := eng.Run(ctx, "", false)
	if err != nil {
		return err
	}
	// A baseline precedes its scheme cells in out.Cells, or is already
	// in the memo.
	for i, c := range out.Cells {
		base := ev.runs[Cell{c.Bench, BaselineSpec}].base
		run := cellRun{sum: summarizeCell(c, out.Campaigns[i], base, out.Summary.Cells[i].FPRate)}
		if c.Scheme == BaselineSpec {
			run.base = out.Campaigns[i]
		}
		ev.runs[c] = run
	}
	return nil
}

// Summary returns campaign cell c's summary, paired against its
// benchmark's baseline; ok is false when no Run has executed c.
func (ev *Evaluator) Summary(c Cell) (CellSummary, bool) {
	run, ok := ev.runs[c]
	return run.sum, ok
}

// TimingOf returns timing cell c's record; ok is false when no Run has
// executed c.
func (ev *Evaluator) TimingOf(c Cell) (TimingMetrics, bool) {
	tm, ok := ev.timings[c]
	return tm, ok
}

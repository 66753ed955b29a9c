package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"faulthound/internal/fault"
	"faulthound/internal/obs"
	"faulthound/internal/pipeline"
)

// ManifestName is the manifest's file name inside a run directory.
const ManifestName = "manifest.json"

// Manifest is the manifest.json artifact: provenance plus the spec
// verbatim. A resume run validates its spec against it.
type Manifest struct {
	Provenance Provenance `json:"provenance"`
	Spec       Spec       `json:"spec"`
}

// ReadManifest loads dir/manifest.json.
func ReadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("campaign: bad manifest in %s: %w", dir, err)
	}
	return &m, nil
}

// Engine executes a campaign spec. It owns every run's state — the
// manifest, the journal, the done-set, resume and the bundle — and
// hands only the outstanding injections to an executor. Factory
// supplies core construction per cell; Progress is an optional
// observation hook, invoked serially.
type Engine struct {
	Spec    Spec
	Factory CoreFactory
	// Source overrides the plan layer: the cells to execute. Nil means
	// the classic static enumeration Spec.Source() — benchmark-major,
	// baseline first. A non-nil Source drives the engine from an
	// external plan (a search batch); Spec.Benchmarks/Schemes are then
	// ignored and only Spec.Fault and Spec.Workers apply.
	Source CellSource
	// Progress is called after every completed injection with the
	// cumulative completed count (including journal-resumed results)
	// and the campaign total.
	Progress func(done, total int)
	// Exec executes a run's outstanding injections, handing each
	// completed one (and each cell's fault-free FP rate) back through
	// the Work; it returns once all are in or the run has failed. Nil
	// means the local worker pool. The cluster coordinator installs its
	// lease dispatcher here.
	Exec func(ctx context.Context, w *Work) error
	// Prepare overrides the golden-run preparation of a cell; nil means
	// fault.Prepare. Long-lived callers (the campaign-serving daemon)
	// route this through a fault.PreparedCache so jobs sharing a cell
	// reuse one prepared golden core.
	Prepare func(c Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error)
	// Warnf receives non-fatal diagnostics (a truncated journal record
	// skipped during resume); nil logs them to os.Stderr.
	Warnf func(format string, args ...any)
	// Obs receives injection-lifecycle events from the local pool: a
	// "prepare" span around each cell's golden phase (its Begin event's
	// Arg names the cell), an "injection" span around every faulty run
	// (End carries the outcome, or "cancelled" on abort), and the
	// per-run instants fault.(*Prepared).RunOne emits through each
	// worker's fault.Worker ("inject", detector actions, "detect").
	// Events are stamped with the worker index as their track. Nil
	// disables instrumentation entirely.
	Obs obs.Sink
}

// warnf routes a non-fatal diagnostic to Warnf or stderr.
func (e *Engine) warnf(format string, args ...any) {
	if e.Warnf != nil {
		e.Warnf(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// Outcome is a finished campaign: the per-cell results in cell order,
// their aggregate summary, and run metadata.
type Outcome struct {
	Spec      Spec
	Cells     []Cell
	Campaigns []*fault.Campaign
	Summary   *Summary
	// Resumed counts injections restored from the journal instead of
	// executed.
	Resumed int
	// Elapsed is the wall-clock duration of this Run call.
	Elapsed time.Duration
	// Dir is the artifact bundle directory ("" for in-memory runs).
	Dir string
}

// Resume continues an interrupted campaign from dir: it loads the
// manifest's spec into the engine (preserving a non-zero
// e.Spec.Workers override — a resume may use a different pool size)
// and replays the journal before executing the remainder. The
// campaign-serving daemon and the cluster coordinator resume their
// jobs through it; cmd/fhcampaign loads the manifest itself and calls
// Run.
func (e *Engine) Resume(ctx context.Context, dir string) (*Outcome, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	workers := e.Spec.Workers
	// Execution-strategy knobs are JSON-excluded (zero in the manifest)
	// and, like Workers, belong to this run rather than the campaign:
	// keep the caller's settings.
	ckpt, early := e.Spec.Fault.CheckpointCycles, e.Spec.Fault.EarlyExit
	e.Spec = man.Spec
	if workers != 0 {
		e.Spec.Workers = workers
	}
	e.Spec.Fault.CheckpointCycles = ckpt
	e.Spec.Fault.EarlyExit = early
	return e.Run(ctx, dir, true)
}

// Run executes the campaign. With dir != "", the run journals into and
// writes its artifact bundle under dir; with resume true, dir must hold
// a prior run's manifest and journal, whose completed injections are
// reused. A cancelled ctx stops the run with ctx.Err(), leaving the
// journal for a later resume.
func (e *Engine) Run(ctx context.Context, dir string, resume bool) (*Outcome, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	w, err := e.open(dir, resume)
	if err != nil {
		return nil, err
	}
	resumed := w.done
	exec := e.Exec
	if exec == nil {
		exec = e.execLocal
	}
	err = exec(ctx, w)
	if w.journal != nil {
		if cerr := w.journal.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if w.done != w.total {
		return nil, fmt.Errorf("campaign: executor returned with %d of %d injections outstanding", w.total-w.done, w.total)
	}
	return e.finish(w, dir, resumed, start)
}

// open is everything before the first injection: validate the engine,
// plan the cells, replay a resumed run's journal into the done-set,
// write a fresh run's manifest (up front, so even an early kill leaves
// a resumable run) and open the journal for appending.
func (e *Engine) open(dir string, resume bool) (*Work, error) {
	source := e.Source
	if source == nil {
		// Classic path: the spec itself is the plan.
		if err := e.Spec.validate(); err != nil {
			return nil, err
		}
		source = e.Spec.Source()
	} else if e.Spec.Fault.Injections <= 0 {
		return nil, fmt.Errorf("campaign: spec has no injections")
	}
	if e.Factory == nil {
		return nil, fmt.Errorf("campaign: engine has no core factory")
	}
	if resume && dir == "" {
		return nil, fmt.Errorf("campaign: resume requires a run directory")
	}

	cells := source.Plan()
	if len(cells) == 0 {
		return nil, fmt.Errorf("campaign: plan has no cells")
	}
	w := newWork(e.Spec, cells, e.Progress)

	if resume {
		man, err := ReadManifest(dir)
		if err != nil {
			return nil, err
		}
		if !e.Spec.equivalent(man.Spec) {
			return nil, fmt.Errorf("campaign: spec does not match the manifest in %s (cells or fault config differ)", dir)
		}
		jpath := filepath.Join(dir, JournalName)
		recs, repaired, err := repairJournal(jpath)
		if err != nil {
			return nil, err
		}
		if repaired {
			// A process killed mid-append leaves a partial trailing
			// record. repairJournal dropped it (that injection simply
			// re-executes) and cut the file so our own appends start on
			// a clean line boundary.
			e.warnf("campaign: journal %s: skipping truncated trailing record (process killed mid-write); re-executing that injection", jpath)
		}
		if err := w.replay(recs); err != nil {
			return nil, err
		}
	}

	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if !resume {
			man := Manifest{Provenance: NewProvenance(e.Spec.RunID), Spec: e.Spec}
			if err := WriteJSONFile(filepath.Join(dir, ManifestName), man); err != nil {
				return nil, err
			}
		}
		var err error
		if w.journal, err = openJournal(filepath.Join(dir, JournalName)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// finish aggregates a fully executed run into its outcome and, for a
// run with a directory, writes the bundle.
func (e *Engine) finish(w *Work, dir string, resumed int, start time.Time) (*Outcome, error) {
	campaigns := make([]*fault.Campaign, len(w.Cells))
	for ci := range w.Cells {
		campaigns[ci] = &fault.Campaign{Config: w.Spec.Fault, Results: w.results[ci]}
	}
	out := &Outcome{
		Spec:      w.Spec,
		Cells:     w.Cells,
		Campaigns: campaigns,
		Summary:   buildSummary(w.Spec, w.Cells, campaigns, w.fpRates),
		Resumed:   resumed,
		Elapsed:   time.Since(start),
		Dir:       dir,
	}
	if dir != "" {
		if err := writeBundle(dir, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cellState is one cell's lazily-prepared golden run. Preparation
// happens under once when the first worker picks a task of the cell;
// after prepare returns, prepared is read-only and shared by every
// worker (see fault.Prepared).
type cellState struct {
	once     sync.Once
	prepared *fault.Prepared
	err      error
}

// execLocal is the default executor: Spec.Workers goroutines, each
// with its own fault.Worker, over the outstanding injections in
// cell-major order — workers converge on one cell's injections while
// the next cell's preparation overlaps with the current cell's tail.
func (e *Engine) execLocal(ctx context.Context, w *Work) error {
	type task struct{ cell, inj int }
	var tasks []task
	for _, r := range w.Ranges() {
		for i := r.From; i < r.To; i++ {
			tasks = append(tasks, task{r.Cell, i})
		}
	}
	injs := fault.DrawInjections(w.Spec.Fault)
	states := make([]cellState, len(w.Cells))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	// prepare runs a cell's golden phase exactly once and records its
	// fault-free FP rate. The span lands on the track of whichever
	// worker won the once — the one that actually paid the golden run.
	prepare := func(ci int, sink obs.Sink) *cellState {
		st := &states[ci]
		st.once.Do(func() {
			c := w.Cells[ci]
			began := obs.Begin(sink, "prepare", c.String())
			defer func() { obs.End(sink, "prepare", began, "") }()
			mk, err := e.Factory(c.Bench, c.Scheme)
			if err != nil {
				st.err = fmt.Errorf("campaign: %s: %w", c, err)
				return
			}
			prep := e.Prepare
			if prep == nil {
				prep = func(_ Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
					return fault.Prepare(mk, cfg)
				}
			}
			p, err := prep(c, mk, w.Spec.Fault)
			if err != nil {
				st.err = fmt.Errorf("campaign: %s: %w", c, err)
				return
			}
			st.prepared = p
			st.err = w.Prep(ci, p.FPRate())
		})
		return st
	}

	workers := w.Spec.WorkerCount()
	if workers > len(tasks) && len(tasks) > 0 {
		workers = len(tasks)
	}
	taskCh := make(chan task)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			wsink := obs.WithTrack(e.Obs, wi)
			// One fault.Worker per goroutine: successive injections
			// rebuild the faulty core in its arena, which survives cell
			// switches (mismatched golden state just falls back to fresh
			// allocation once).
			fw := fault.NewWorker(wsink)
			for t := range taskCh {
				st := prepare(t.cell, wsink)
				if st.err != nil {
					fail(st.err)
					return
				}
				// RunOne polls runCtx inside the faulty run, so a drain
				// (SIGTERM) aborts promptly even mid-injection; the
				// partial injection is simply not journaled.
				began := obs.Begin(wsink, "injection", w.Cells[t.cell].String())
				res, rerr := st.prepared.RunOne(runCtx, injs[t.inj], fw)
				if rerr != nil {
					obs.End(wsink, "injection", began, "cancelled")
					return
				}
				obs.End(wsink, "injection", began, res.Outcome.String())
				if _, err := w.Result(t.cell, t.inj, res); err != nil {
					fail(err)
					return
				}
			}
		}(wi)
	}

feed:
	for _, t := range tasks {
		select {
		case taskCh <- t:
		case <-runCtx.Done():
			break feed
		}
	}
	close(taskCh)
	wg.Wait()
	return firstErr
}

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
	// Cells is the plan: the cells to execute, in order. Nil means
	// Spec.Cells(), benchmark-major with each baseline first. With
	// Cells set (an Evaluator's run), Spec.Benchmarks and Spec.Schemes
	// are ignored and only Spec.Fault and Spec.Workers apply.
	Cells []Cell
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
	// Audit is the fraction of early-exiting runs the local pool's
	// workers re-check against full-window simulation
	// (fault.Worker.Audit); 0 audits none. It changes no Result and is
	// not part of the spec, so it never reaches the manifest. Another
	// executor (Exec) ignores it.
	Audit float64
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
	cells := e.Cells
	if cells == nil {
		if err := e.Spec.validate(); err != nil {
			return nil, err
		}
		cells = e.Spec.Cells()
	} else if err := e.Spec.Fault.Validate(); err != nil {
		return nil, err
	}
	if e.Factory == nil {
		return nil, fmt.Errorf("campaign: engine has no core factory")
	}
	if resume && dir == "" {
		return nil, fmt.Errorf("campaign: resume requires a run directory")
	}

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

// execLocal is the default executor: Spec.Workers goroutines, each
// with its own fault.Worker, drawing cells to prepare and injections
// to run from one schedule. A worker that would wait on another's
// preparation prepares the next cell itself, so preparations overlap
// each other and the injections of cells already prepared.
func (e *Engine) execLocal(ctx context.Context, w *Work) error {
	injs := fault.DrawInjections(w.Spec.Fault)
	s := newSchedule(w)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// A cancellation wakes workers waiting on a preparation.
	defer context.AfterFunc(runCtx, func() { s.stop(nil) })()
	fail := func(err error) {
		s.stop(err)
		cancel()
	}

	workers := min(w.Spec.WorkerCount(), max(s.outstanding, 1))
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
			fw.Audit = e.Audit
			for {
				t, ok := s.next()
				if !ok {
					return
				}
				if t.p == nil {
					p, err := e.prepareCell(w, t.cell, wsink)
					if err != nil {
						fail(err)
					}
					s.prepared(t.cell, p)
					continue
				}
				// RunOne polls runCtx inside the faulty run, so a drain
				// (SIGTERM) aborts promptly even mid-injection; the
				// partial injection is simply not journaled. Any other
				// error (an audit violation) fails the run.
				began := obs.Begin(wsink, "injection", w.Cells[t.cell].String())
				res, rerr := t.p.RunOne(runCtx, injs[t.inj], fw)
				if rerr != nil {
					obs.End(wsink, "injection", began, "cancelled")
					if runCtx.Err() == nil {
						fail(fmt.Errorf("campaign: %s injection %d: %w", w.Cells[t.cell], t.inj, rerr))
					}
					return
				}
				obs.End(wsink, "injection", began, res.Outcome.String())
				if _, err := w.Result(t.cell, t.inj, res); err != nil {
					fail(err)
					return
				}
				s.finished(t.cell)
			}
		}(wi)
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// prepareCell runs cell ci's golden phase and records its fault-free
// FP rate. The "prepare" span lands on sink, the track of the worker
// that pays for the golden run.
func (e *Engine) prepareCell(w *Work, ci int, sink obs.Sink) (*fault.Prepared, error) {
	c := w.Cells[ci]
	began := obs.Begin(sink, "prepare", c.String())
	defer obs.End(sink, "prepare", began, "")
	mk, err := e.Factory(c.Bench, c.Scheme)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", c, err)
	}
	prep := e.Prepare
	if prep == nil {
		prep = func(_ Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
			return fault.Prepare(mk, cfg)
		}
	}
	p, err := prep(c, mk, w.Spec.Fault)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", c, err)
	}
	if err := w.Prep(ci, p.FPRate()); err != nil {
		return nil, err
	}
	return p, nil
}

// schedule hands out execLocal's work under one lock. A worker asking
// for work gets, in order of preference:
//
//  1. the next outstanding injection of the earliest prepared cell;
//  2. the next unprepared cell with outstanding injections, to prepare
//     outside the lock;
//  3. a wait, while another worker's preparation is in flight;
//
// and otherwise nothing: the run is done. A preparation starts only
// when no prepared work is left, so at most one per worker is in
// flight and prepared cells never pile up ahead of the injections.
// With one worker the order is the plan's: prepare a cell, run its
// injections in index order, move to the next. A cell's Prepared is
// dropped once its last injection completes, so its golden state can
// be collected unless something else (a fault.PreparedCache) holds it.
type schedule struct {
	mu    sync.Mutex
	wake  sync.Cond
	cells []schedCell
	// claimed counts the cells handed out for preparation, which go in
	// plan order.
	claimed     int
	preparing   int
	outstanding int
	stopped     bool
	err         error
}

// schedCell is one cell's share of a schedule.
type schedCell struct {
	todo  []int // outstanding injection indices, ascending
	taken int   // todo[:taken] have been handed out
	left  int   // outstanding injections not yet completed
	p     *fault.Prepared
}

// task is a worker's unit of work: injection inj of cell on p, or, when
// p is nil, the preparation of cell.
type task struct {
	cell, inj int
	p         *fault.Prepared
}

func newSchedule(w *Work) *schedule {
	s := &schedule{cells: make([]schedCell, len(w.Cells))}
	s.wake.L = &s.mu
	for _, r := range w.Ranges() {
		c := &s.cells[r.Cell]
		for i := r.From; i < r.To; i++ {
			c.todo = append(c.todo, i)
		}
		c.left = len(c.todo)
		s.outstanding += r.To - r.From
	}
	return s
}

// next blocks until it has a task for the calling worker; ok is false
// when the run is done or stopped.
func (s *schedule) next() (t task, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.stopped {
		for ci := 0; ci < s.claimed; ci++ {
			if c := &s.cells[ci]; c.p != nil && c.taken < len(c.todo) {
				c.taken++
				return task{cell: ci, inj: c.todo[c.taken-1], p: c.p}, true
			}
		}
		for s.claimed < len(s.cells) && len(s.cells[s.claimed].todo) == 0 {
			s.claimed++
		}
		if s.claimed < len(s.cells) {
			s.claimed++
			s.preparing++
			return task{cell: s.claimed - 1}, true
		}
		if s.preparing == 0 {
			break
		}
		s.wake.Wait()
	}
	return task{}, false
}

// prepared installs cell's preparation (nil when it failed) and wakes
// the workers waiting for it.
func (s *schedule) prepared(cell int, p *fault.Prepared) {
	s.mu.Lock()
	s.cells[cell].p = p
	s.preparing--
	s.mu.Unlock()
	s.wake.Broadcast()
}

// finished records a completed injection of cell, dropping the cell's
// Prepared after its last.
func (s *schedule) finished(cell int) {
	s.mu.Lock()
	c := &s.cells[cell]
	c.left--
	if c.left == 0 {
		c.p = nil
	}
	s.mu.Unlock()
}

// stop ends the run: next hands out nothing more, and every waiting
// worker wakes. The first non-nil err is the run's error.
func (s *schedule) stop(err error) {
	s.mu.Lock()
	s.stopped = true
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.wake.Broadcast()
}

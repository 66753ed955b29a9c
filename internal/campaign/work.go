package campaign

import (
	"fmt"
	"os"
	"sync"

	"faulthound/internal/fault"
	"faulthound/internal/scheme"
)

// Work is one run's state between the engine opening and finishing
// it: the plan, the done-set (journal-replayed plus newly completed
// injections), each cell's fault-free FP rate, and the journal. An
// executor (Engine.Exec) reads the outstanding injections from it and
// hands every completed one back through Result; Work validates,
// dedupes, journals and counts them under one lock, so a result
// delivered twice (a re-leased range) is journaled once. Its methods
// are safe for concurrent use.
type Work struct {
	// Spec is the run's campaign spec. Executors draw the injection
	// descriptors from Spec.Fault, so index i of a cell names the same
	// injection on every node.
	Spec Spec
	// Cells is the run's plan in execution order; the cell arguments of
	// Work's methods index it.
	Cells []Cell

	progress func(done, total int)
	journal  *os.File // nil for in-memory runs

	mu      sync.Mutex
	results [][]fault.Result
	have    [][]bool
	fpRates []float64
	fpKnown []bool
	done    int
	total   int
}

func newWork(spec Spec, cells []Cell, progress func(done, total int)) *Work {
	n := spec.Fault.Injections
	w := &Work{
		Spec:     spec,
		Cells:    cells,
		progress: progress,
		results:  make([][]fault.Result, len(cells)),
		have:     make([][]bool, len(cells)),
		fpRates:  make([]float64, len(cells)),
		fpKnown:  make([]bool, len(cells)),
		total:    len(cells) * n,
	}
	for i := range cells {
		w.results[i] = make([]fault.Result, n)
		w.have[i] = make([]bool, n)
	}
	return w
}

// Range is a contiguous run [From, To) of descriptor indices of cell
// Cells[Cell].
type Range struct{ Cell, From, To int }

// Ranges returns the outstanding injections as maximal contiguous
// ranges, cell-major in execution order.
func (w *Work) Ranges() []Range {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []Range
	for ci, have := range w.have {
		for i := 0; i < len(have); {
			if have[i] {
				i++
				continue
			}
			j := i + 1
			for j < len(have) && !have[j] {
				j++
			}
			out = append(out, Range{ci, i, j})
			i = j
		}
	}
	return out
}

// Done reports whether injection i of cell has a result.
func (w *Work) Done(cell, i int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.have[cell][i]
}

// Prep records cell's fault-free false-positive rate. The first report
// is journaled; repeats (every lease of a cell reports it) are dropped.
func (w *Work) Prep(cell int, fpRate float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fpKnown[cell] {
		return nil
	}
	c := w.Cells[cell]
	if err := appendRecord(w.journal, Record{Kind: "prep", Bench: c.Bench, Scheme: c.Scheme.String(), FPRate: fpRate}); err != nil {
		return err
	}
	w.fpRates[cell], w.fpKnown[cell] = fpRate, true
	return nil
}

// Result records injection i of cell. A new result is journaled,
// joins the done-set and advances Progress; one already recorded is
// dropped (added false) — deterministic execution makes it byte-equal.
// An out-of-range i is an error, since executors pass it on from the
// network.
func (w *Work) Result(cell, i int, r fault.Result) (added bool, err error) {
	if i < 0 || i >= w.Spec.Fault.Injections {
		return false, fmt.Errorf("campaign: result index %d out of range [0,%d)", i, w.Spec.Fault.Injections)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.have[cell][i] {
		return false, nil
	}
	c := w.Cells[cell]
	if err := appendRecord(w.journal, Record{Kind: "result", Bench: c.Bench, Scheme: c.Scheme.String(), Index: i, Result: &r}); err != nil {
		return false, err
	}
	w.results[cell][i], w.have[cell][i] = r, true
	w.done++
	if w.progress != nil {
		w.progress(w.done, w.total)
	}
	return true, nil
}

// replay folds a resumed run's journal records into the done-set. A
// record naming a cell outside the plan, a bad index or an unknown
// kind means the journal belongs to another campaign or is corrupt.
func (w *Work) replay(recs []Record) error {
	cellIdx := make(map[Cell]int, len(w.Cells))
	for i, c := range w.Cells {
		cellIdx[c] = i
	}
	for _, r := range recs {
		ci, ok := cellIdx[Cell{r.Bench, scheme.FromString(r.Scheme)}]
		if !ok {
			return fmt.Errorf("campaign: journal records unknown cell %s/%s", r.Bench, r.Scheme)
		}
		switch r.Kind {
		case "prep":
			w.fpRates[ci], w.fpKnown[ci] = r.FPRate, true
		case "result":
			if r.Index < 0 || r.Index >= len(w.have[ci]) || r.Result == nil {
				return fmt.Errorf("campaign: journal has bad result record for %s/%s index %d", r.Bench, r.Scheme, r.Index)
			}
			if !w.have[ci][r.Index] {
				w.done++
			}
			w.results[ci][r.Index] = *r.Result
			w.have[ci][r.Index] = true
		default:
			return fmt.Errorf("campaign: journal has unknown record kind %q", r.Kind)
		}
	}
	return nil
}

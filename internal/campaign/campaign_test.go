package campaign_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/fault"
	"faulthound/internal/harness"
	"faulthound/internal/obs"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
)

// testSpec returns a small two-cell campaign (bzip2 x baseline +
// faulthound) and the harness options that resolve its cores.
func testSpec(t *testing.T, injections int) (campaign.Spec, harness.Options) {
	t.Helper()
	o := harness.QuickOptions()
	spec := o.CampaignSpec([]string{"bzip2"}, []harness.Scheme{harness.FaultHound})
	spec.RunID = "test-run"
	spec.Fault.Injections = injections
	return spec, o
}

func runEngine(t *testing.T, spec campaign.Spec, o harness.Options, dir string, resume bool, progress func(done, total int)) (*campaign.Outcome, error) {
	t.Helper()
	eng := &campaign.Engine{Spec: spec, Factory: o.CampaignFactory(), Progress: progress}
	return eng.Run(context.Background(), dir, resume)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkerCountInvariance is the determinism guarantee: the same spec
// produces byte-identical results.csv and summary.json bundles whatever
// the worker count. Four cells, so that at two and four workers cells
// are prepared ahead of each other and finish out of plan order.
func TestWorkerCountInvariance(t *testing.T) {
	spec, o := testSpec(t, 24)
	spec.Benchmarks = []string{"bzip2", "mcf"}
	var want []string
	for _, workers := range []int{1, 2, 4} {
		dir := filepath.Join(t.TempDir(), "run")
		s := spec
		s.Workers = workers
		if _, err := runEngine(t, s, o, dir, false, nil); err != nil {
			t.Fatal(err)
		}
		// summary.json must match too (aggregates of the same results).
		files := []string{campaign.ResultsName, campaign.SummaryName}
		for i, f := range files {
			got := string(readFile(t, filepath.Join(dir, f)))
			if workers == 1 {
				if got == "" {
					t.Fatalf("empty %s", f)
				}
				want = append(want, got)
			} else if got != want[i] {
				t.Fatalf("%s differs between -workers 1 and -workers %d", f, workers)
			}
		}
	}
}

// TestPrepareAhead: a worker that would wait on another worker's
// preparation prepares the next cell instead. Cell 0's preparation is
// held until cell 1's has begun, which only the second worker, preparing
// ahead, can start.
func TestPrepareAhead(t *testing.T) {
	spec, o := testSpec(t, 8)
	spec.Benchmarks = []string{"bzip2", "mcf"}
	spec.Workers = 2
	cells := spec.Cells()
	began := make(chan struct{})
	eng := &campaign.Engine{Spec: spec, Factory: o.CampaignFactory(),
		Prepare: func(c campaign.Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
			switch c {
			case cells[0]:
				select {
				case <-began:
				case <-time.After(10 * time.Second):
					return nil, fmt.Errorf("%s's preparation was held 10 s and %s's never began", cells[0], cells[1])
				}
			case cells[1]:
				close(began)
			}
			return fault.Prepare(mk, cfg)
		}}
	if _, err := eng.Run(context.Background(), "", false); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedReleased: a cell's golden state is dropped after its last
// injection, so a long campaign holds only the cells in flight. With
// one worker, when cell k starts preparing, cells 0..k-2 must already
// be collectable; cell k-1 may still back the worker's arena.
func TestPreparedReleased(t *testing.T) {
	spec, o := testSpec(t, 8)
	spec.Benchmarks = []string{"bzip2", "mcf"}
	spec.Workers = 1
	collected := make([]atomic.Bool, len(spec.Cells()))
	k := 0
	eng := &campaign.Engine{Spec: spec, Factory: o.CampaignFactory(),
		Prepare: func(_ campaign.Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
			gone := func() int {
				n := 0
				for i := 0; i < k-1; i++ {
					if collected[i].Load() {
						n++
					}
				}
				return n
			}
			// Finalizers run on their own goroutine after the collection
			// that finds the object unreachable.
			for deadline := time.Now().Add(2 * time.Second); k >= 2 && gone() < k-1 && time.Now().Before(deadline); {
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
			}
			if k >= 2 && gone() < k-1 {
				return nil, fmt.Errorf("cell %d began preparing with %d of the first %d cells' golden state collected", k, gone(), k-1)
			}
			p, err := fault.Prepare(mk, cfg)
			if err == nil {
				i := k
				runtime.SetFinalizer(p, func(*fault.Prepared) { collected[i].Store(true) })
			}
			k++
			return p, err
		}}
	if _, err := eng.Run(context.Background(), "", false); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAudit: Engine.Audit reaches the local pool's workers. At
// rate 1 every early exit of every cell is audited, with no violation,
// and the bundle is the unaudited run's.
func TestEngineAudit(t *testing.T) {
	spec, o := testSpec(t, 16)
	spec.Workers = 2
	want, err := runEngine(t, spec, o, "", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var prepared []*fault.Prepared
	eng := &campaign.Engine{Spec: spec, Factory: o.CampaignFactory(), Audit: 1,
		Prepare: func(_ campaign.Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
			p, err := fault.Prepare(mk, cfg)
			mu.Lock()
			prepared = append(prepared, p)
			mu.Unlock()
			return p, err
		}}
	got, err := eng.Run(context.Background(), "", false)
	if err != nil {
		t.Fatal(err)
	}
	var pf fault.Perf
	for _, p := range prepared {
		pf = pf.Add(p.Perf())
	}
	if pf.EarlyExits == 0 || pf.Audits != pf.EarlyExits || pf.AuditViolations != 0 {
		t.Errorf("%d audits and %d violations over %d early exits, want one audit each and none",
			pf.Audits, pf.AuditViolations, pf.EarlyExits)
	}
	if !reflect.DeepEqual(got.Campaigns, want.Campaigns) {
		t.Error("the audited run's results differ from the unaudited run's")
	}
}

// TestResumeReproducesBundle kills a campaign mid-flight (context
// cancel after N results), restarts it with resume, and asserts the
// merged bundle is byte-identical to an uninterrupted run with the
// same seed — the journal-resume guarantee, run under -race in CI.
func TestResumeReproducesBundle(t *testing.T) {
	spec, o := testSpec(t, 24)
	spec.Workers = 4

	// Uninterrupted reference run.
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, err := runEngine(t, spec, o, refDir, false, nil); err != nil {
		t.Fatal(err)
	}
	refCSV := readFile(t, filepath.Join(refDir, campaign.ResultsName))

	// Interrupted run: cancel after 10 completed injections.
	dir := filepath.Join(t.TempDir(), "run")
	ctx, cancel := context.WithCancel(context.Background())
	eng := &campaign.Engine{
		Spec:    spec,
		Factory: o.CampaignFactory(),
		Progress: func(done, total int) {
			if done >= 10 {
				cancel()
			}
		},
	}
	if _, err := eng.Run(ctx, dir, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if _, err := os.Stat(filepath.Join(dir, campaign.ResultsName)); !os.IsNotExist(err) {
		t.Fatal("interrupted run should not have written results.csv")
	}
	recs, err := campaign.ReadJournal(filepath.Join(dir, campaign.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("interrupted run left an empty journal")
	}

	// Resume and compare.
	out, err := runEngine(t, spec, o, dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Resumed < 10 {
		t.Fatalf("resumed %d results, expected >= 10", out.Resumed)
	}
	gotCSV := readFile(t, filepath.Join(dir, campaign.ResultsName))
	if string(gotCSV) != string(refCSV) {
		t.Fatal("resumed results.csv differs from the uninterrupted run")
	}
	if string(readFile(t, filepath.Join(dir, campaign.SummaryName))) !=
		string(readFile(t, filepath.Join(refDir, campaign.SummaryName))) {
		t.Fatal("resumed summary.json differs from the uninterrupted run")
	}
}

// TestResumeSpecMismatch rejects resuming with a different campaign.
func TestResumeSpecMismatch(t *testing.T) {
	spec, o := testSpec(t, 8)
	dir := filepath.Join(t.TempDir(), "run")
	if _, err := runEngine(t, spec, o, dir, false, nil); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Fault.Seed++
	if _, err := runEngine(t, other, o, dir, true, nil); err == nil {
		t.Fatal("resume with a different seed should fail")
	}
}

// TestBundleArtifacts checks the bundle contents: a parsable manifest
// with provenance, a summary whose cells partition the injections, and
// a report referencing every artifact.
func TestBundleArtifacts(t *testing.T) {
	spec, o := testSpec(t, 12)
	dir := filepath.Join(t.TempDir(), "run")
	out, err := runEngine(t, spec, o, dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	man, err := campaign.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Provenance.RunID != "test-run" || man.Provenance.GoVersion == "" || man.Provenance.GitCommit == "" {
		t.Fatalf("incomplete provenance: %+v", man.Provenance)
	}
	if cells := man.Spec.Cells(); len(cells) != 2 || cells[0].Scheme != campaign.BaselineSpec {
		t.Fatalf("manifest spec cells = %v", cells)
	}

	var sum campaign.Summary
	if err := json.Unmarshal(readFile(t, filepath.Join(dir, campaign.SummaryName)), &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Cells) != 2 {
		t.Fatalf("summary has %d cells, want 2", len(sum.Cells))
	}
	for _, c := range sum.Cells {
		if c.Masked+c.Noisy+c.SDC != spec.Fault.Injections {
			t.Fatalf("cell %s/%s outcomes do not partition: %d+%d+%d != %d",
				c.Bench, c.Scheme, c.Masked, c.Noisy, c.SDC, spec.Fault.Injections)
		}
	}
	fh := sum.Cell("bzip2", string(harness.FaultHound))
	if fh == nil || fh.Coverage == nil {
		t.Fatal("faulthound cell has no coverage summary")
	}
	if base := sum.Cell("bzip2", campaign.BaselineScheme); base == nil || base.Coverage != nil {
		t.Fatal("baseline cell should exist without coverage")
	}

	report := string(readFile(t, filepath.Join(dir, campaign.ReportName)))
	for _, want := range []string{"Run ID", campaign.ResultsName, campaign.SummaryName, campaign.JournalName, "## Classification"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report.md missing %q", want)
		}
	}
	if out.Summary.Injections != spec.Fault.Injections {
		t.Fatalf("summary injections = %d", out.Summary.Injections)
	}
}

// TestSummaryMatchesPairCoverage cross-checks the engine's aggregation
// against the fault package's reference pairing.
func TestSummaryMatchesPairCoverage(t *testing.T) {
	spec, o := testSpec(t, 24)
	out, err := runEngine(t, spec, o, "", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := fault.PairCoverage(out.Campaigns[0], out.Campaigns[1])
	fh := out.Summary.Cell("bzip2", string(harness.FaultHound))
	if fh.Coverage.SDCBase != rep.SDCBase || fh.Coverage.Covered != rep.CoveredCount {
		t.Fatalf("summary coverage %+v != PairCoverage %+v", fh.Coverage, rep)
	}
}

// TestJournalTolerance: a truncated final line (killed mid-write) is
// ignored; interior corruption is an error.
func TestJournalTolerance(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	good := `{"kind":"prep","bench":"b","scheme":"s","fp_rate":0.5}` + "\n"
	if err := os.WriteFile(path, []byte(good+`{"kind":"result","bench`), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := campaign.ReadJournal(path)
	if err != nil {
		t.Fatalf("truncated final line should be tolerated: %v", err)
	}
	if len(recs) != 1 || recs[0].Kind != "prep" {
		t.Fatalf("records = %+v", recs)
	}

	if err := os.WriteFile(path, []byte("garbage\n"+good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.ReadJournal(path); err == nil {
		t.Fatal("interior corruption should be an error")
	}

	if recs, err := campaign.ReadJournal(filepath.Join(dir, "missing.jsonl")); err != nil || recs != nil {
		t.Fatalf("missing journal: recs=%v err=%v", recs, err)
	}
}

// TestResumeTruncatedJournal is the regression test for a process
// killed mid-append: the journal's trailing record is cut mid-JSON, and
// -resume must warn, skip (and re-execute) that record, repair the
// journal, and still reproduce the uninterrupted bundle byte for byte.
// A second resume of the repaired journal must not see interior
// corruption.
func TestResumeTruncatedJournal(t *testing.T) {
	spec, o := testSpec(t, 24)
	spec.Workers = 2

	// Uninterrupted reference run.
	refDir := filepath.Join(t.TempDir(), "ref")
	if _, err := runEngine(t, spec, o, refDir, false, nil); err != nil {
		t.Fatal(err)
	}

	// Interrupted run, then truncate the journal mid-record.
	dir := filepath.Join(t.TempDir(), "run")
	ctx, cancel := context.WithCancel(context.Background())
	eng := &campaign.Engine{
		Spec:    spec,
		Factory: o.CampaignFactory(),
		Progress: func(done, total int) {
			if done >= 8 {
				cancel()
			}
		},
	}
	if _, err := eng.Run(ctx, dir, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	jpath := filepath.Join(dir, campaign.JournalName)
	raw := readFile(t, jpath)
	if len(raw) < 40 {
		t.Fatalf("journal too short to truncate: %d bytes", len(raw))
	}
	// Chop the final record roughly in half (strip the trailing newline
	// first so the cut lands mid-JSON).
	body := strings.TrimSuffix(string(raw), "\n")
	last := strings.LastIndexByte(body, '\n') + 1
	cut := last + (len(body)-last)/2
	if err := os.WriteFile(jpath, []byte(body[:cut]), 0o644); err != nil {
		t.Fatal(err)
	}

	var warned []string
	eng2 := &campaign.Engine{
		Spec:    spec,
		Factory: o.CampaignFactory(),
		Warnf:   func(format string, args ...any) { warned = append(warned, fmt.Sprintf(format, args...)) },
	}
	out, err := eng2.Run(context.Background(), dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(warned) == 0 || !strings.Contains(warned[0], "truncated") {
		t.Fatalf("resume over a truncated journal should warn, got %q", warned)
	}
	if out.Resumed == 0 {
		t.Fatal("resume replayed no journal records")
	}
	if string(readFile(t, filepath.Join(dir, campaign.ResultsName))) !=
		string(readFile(t, filepath.Join(refDir, campaign.ResultsName))) {
		t.Fatal("resumed results.csv differs from the uninterrupted run")
	}
	if string(readFile(t, filepath.Join(dir, campaign.SummaryName))) !=
		string(readFile(t, filepath.Join(refDir, campaign.SummaryName))) {
		t.Fatal("resumed summary.json differs from the uninterrupted run")
	}

	// The repaired journal must be fully parsable: the resume's appends
	// started on a clean line boundary.
	if _, err := campaign.ReadJournal(jpath); err != nil {
		t.Fatalf("journal corrupted by resume appends: %v", err)
	}
}

// TestCellsEnumeration: baseline first per benchmark, duplicates and
// explicit "baseline" entries collapse.
func TestCellsEnumeration(t *testing.T) {
	s := campaign.Spec{
		Benchmarks: []string{"a", "b"},
		Schemes:    []string{"baseline", "x", "x", "y"},
	}
	got := s.Cells()
	want := []campaign.Cell{
		{"a", scheme.Spec{Name: "baseline"}}, {"a", scheme.Spec{Name: "x"}}, {"a", scheme.Spec{Name: "y"}},
		{"b", scheme.Spec{Name: "baseline"}}, {"b", scheme.Spec{Name: "x"}}, {"b", scheme.Spec{Name: "y"}},
	}
	if len(got) != len(want) {
		t.Fatalf("cells = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cells[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCellSeedDecorrelation: distinct cells derive distinct auxiliary
// seeds, stable across calls.
func TestCellSeedDecorrelation(t *testing.T) {
	fh := scheme.Spec{Name: "faulthound"}
	a := campaign.CellSeed(1, campaign.Cell{Bench: "bzip2", Scheme: fh})
	b := campaign.CellSeed(1, campaign.Cell{Bench: "bzip2", Scheme: campaign.BaselineSpec})
	c := campaign.CellSeed(1, campaign.Cell{Bench: "mcf", Scheme: fh})
	if a == b || a == c || b == c {
		t.Fatalf("cell seeds collide: %x %x %x", a, b, c)
	}
	if a != campaign.CellSeed(1, campaign.Cell{Bench: "bzip2", Scheme: fh}) {
		t.Fatal("cell seed not stable")
	}
}

// TestEngineObs runs a multi-worker campaign with a recording sink and
// checks the lifecycle stream: every track has matched begin/end span
// pairs, every injection span ends with a valid outcome, tracks stay
// within the worker pool, and the span count matches the campaign size.
// The "prepare" spans' Begin events name every planned cell once.
func TestEngineObs(t *testing.T) {
	spec, o := testSpec(t, 16)
	spec.Workers = 4
	var rec obs.Collector
	eng := &campaign.Engine{Spec: spec, Factory: o.CampaignFactory(), Obs: &rec}
	out, err := eng.Run(context.Background(), "", false)
	if err != nil {
		t.Fatal(err)
	}
	var prepared, cells []string
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindBegin && ev.Name == "prepare" {
			prepared = append(prepared, ev.Arg)
		}
	}
	sort.Strings(prepared)
	for _, c := range out.Cells {
		cells = append(cells, c.String())
	}
	sort.Strings(cells)
	if fmt.Sprint(prepared) != fmt.Sprint(cells) {
		t.Fatalf("prepare spans name cells %v, want %v", prepared, cells)
	}
	total := len(out.Cells) * spec.Fault.Injections

	valid := map[string]bool{"masked": true, "noisy": true, "sdc": true}
	open := map[int][]string{}
	injections, prepares := 0, 0
	for i, ev := range rec.Events() {
		if ev.Track < 0 || ev.Track >= spec.Workers {
			t.Fatalf("event %d on track %d, worker pool is %d", i, ev.Track, spec.Workers)
		}
		switch ev.Kind {
		case obs.KindBegin:
			open[ev.Track] = append(open[ev.Track], ev.Name)
		case obs.KindEnd:
			stack := open[ev.Track]
			if len(stack) == 0 || stack[len(stack)-1] != ev.Name {
				t.Fatalf("event %d: end %q does not match track %d stack %v", i, ev.Name, ev.Track, stack)
			}
			open[ev.Track] = stack[:len(stack)-1]
			switch ev.Name {
			case "injection":
				injections++
				if !valid[ev.Arg] {
					t.Fatalf("injection span ended with outcome %q", ev.Arg)
				}
			case "prepare":
				prepares++
			}
		}
	}
	for tr, stack := range open {
		if len(stack) != 0 {
			t.Fatalf("track %d left spans open: %v", tr, stack)
		}
	}
	if injections != total {
		t.Fatalf("saw %d injection spans, want %d", injections, total)
	}
	if prepares != len(out.Cells) {
		t.Fatalf("saw %d prepare spans, want %d", prepares, len(out.Cells))
	}
}

// TestWriteJSONFileNeverTorn rewrites a ~1 MB artifact 200 times while
// a reader parses it in a loop. Write-then-rename means every read sees
// a whole file, the old one or the new one; a truncate-and-write lets
// the reader see a prefix.
func TestWriteJSONFileNeverTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), campaign.SummaryName)
	val := map[string]any{"pad": strings.Repeat("x", 1<<20)}
	if err := campaign.WriteJSONFile(path, val); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var reads, torn int
	var firstErr error
	go func() {
		defer close(done)
		for {
			b, err := os.ReadFile(path)
			reads++
			if err == nil && !json.Valid(b) {
				err = fmt.Errorf("read %d bytes of invalid JSON", len(b))
			}
			if err != nil {
				torn++
				if firstErr == nil {
					firstErr = err
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for i := 0; i < 200; i++ {
		val["rev"] = i
		if err := campaign.WriteJSONFile(path, val); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	if torn > 0 {
		t.Fatalf("%d of %d concurrent reads saw a torn file; first: %v", torn, reads, firstErr)
	}
	left, err := filepath.Glob(filepath.Join(filepath.Dir(path), "*"))
	if err != nil || len(left) != 1 {
		t.Fatalf("directory holds %v (err %v), want only %s", left, err, path)
	}
}

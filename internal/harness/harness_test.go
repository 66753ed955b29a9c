package harness

import (
	"reflect"
	"strings"
	"testing"

	"faulthound/internal/campaign"
	"faulthound/internal/energy"
	"faulthound/internal/scheme"
	"faulthound/internal/workload"
)

// quick returns small options over a 3-benchmark subset spanning the
// workload classes.
func quick() Options {
	o := QuickOptions()
	o.Benchmarks = []string{"bzip2", "mcf", "gamess"}
	return o
}

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRowf("r", "%.1f", 3.25)
	out := tb.Render()
	for _, want := range []string{"== x: T ==", "a", "bb", "3.2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	// CSV escaping.
	tb2 := &Table{Columns: []string{`a,b`}}
	tb2.AddRow(`x"y`)
	if !strings.Contains(tb2.CSV(), `"a,b"`) || !strings.Contains(tb2.CSV(), `"x""y"`) {
		t.Fatalf("csv escaping wrong: %q", tb2.CSV())
	}
}

func TestStaticTables(t *testing.T) {
	t1 := Table1()
	if len(t1.Rows) != 14 {
		t.Fatalf("table1 rows = %d", len(t1.Rows))
	}
	t2 := Table2()
	if len(t2.Rows) < 10 {
		t.Fatalf("table2 rows = %d", len(t2.Rows))
	}
}

func TestFig6Quick(t *testing.T) {
	o := quick()
	tb, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 64 {
		t.Fatalf("fig6 should have 64 bit rows, got %d", len(tb.Rows))
	}
	// Most bit positions must change rarely (the value-locality premise).
	low := 0
	for _, r := range tb.Rows {
		if strings.HasPrefix(r[1], "0.0") {
			low++
		}
	}
	if low < 32 {
		t.Errorf("only %d/64 load-addr bits are near-zero-change; value locality premise broken", low)
	}
}

func TestFig7Quick(t *testing.T) {
	o := quick()
	tb, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	// 3 benchmarks + suite means + overall mean.
	if len(tb.Rows) < 4 {
		t.Fatalf("fig7 rows = %d", len(tb.Rows))
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "mean(all)" {
		t.Fatalf("last row should be the overall mean, got %q", last[0])
	}
}

func TestFig8Quick(t *testing.T) {
	o := quick()
	o.Benchmarks = []string{"bzip2"}
	a, err := Fig8a(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 2 { // benchmark + mean
		t.Fatalf("fig8a rows = %d", len(a.Rows))
	}
	b, err := Fig8b(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Columns) != 1+4 {
		t.Fatalf("fig8b columns = %d", len(b.Columns))
	}
}

func TestFig9And10Quick(t *testing.T) {
	o := quick()
	o.Benchmarks = []string{"bzip2"}
	p, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Columns) != 1+5 {
		t.Fatalf("fig9 columns = %d", len(p.Columns))
	}
	e, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Columns) != 1+3 {
		t.Fatalf("fig10 columns = %d", len(e.Columns))
	}
}

func TestFig11And12Quick(t *testing.T) {
	o := quick()
	o.Benchmarks = []string{"bzip2"}
	tb, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Columns) != 1+6 {
		t.Fatalf("fig11 columns = %d", len(tb.Columns))
	}
	ts, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("fig12 should produce 3 panels, got %d", len(ts))
	}
}

// TestPlanCells pins the plans without simulating: over the 14 kernels,
// All's figures declare 84 distinct campaign cells and 126 distinct
// timing runs, and the extensions 13 and 34, each exactly once (the
// Evaluator adds the baselines the extensions' coverage pairs against;
// TestEvaluatorRun in internal/campaign checks that). Every declared
// scheme is canonical: one that scheme.Parse rewrites would run a
// second time under a second name.
func TestPlanCells(t *testing.T) {
	bms := workload.All()
	benches := names(bms)
	depth3 := Scheme("faulthound?depth=3")
	for _, tc := range []struct {
		name             string
		figs             []figureFunc
		campaign, timing []campaign.Cell
	}{
		{"paper", paperFigures,
			cells(benches, Baseline, PBFS, PBFSBiased, FHBackend, FaultHound, FHBENoLSQ),
			cells(benches, Baseline, PBFS, PBFSBiased, FHBackend, FaultHound, SRTIso, FHBENoClust, FHBENo2Level, FHBEFullRB)},
		// ext-filters' 8 campaign cells, then the 5 of ext-depth's 6 that
		// ext-filters lacks: bzip2's faulthound is shared.
		{"extensions", extFigures,
			append(append(cells([]string{"leslie3d", "bzip2"}, filterSizes...),
				cells([]string{"bzip2"}, depth3)...), cells([]string{"perl", "mcf"}, FaultHound, depth3)...),
			append(cells(benches, Baseline, SRTFull), cells([]string{"perl", "bzip2", "mcf"}, FaultHound, depth3)...)},
	} {
		figs := make([]figure, len(tc.figs))
		for i, fn := range tc.figs {
			figs[i] = fn(bms)
			for _, declared := range [][]campaign.Cell{figs[i].campaign, figs[i].timing} {
				for _, c := range declared {
					if sp, err := scheme.Parse(c.Scheme.String()); err != nil || sp != c.Scheme {
						t.Errorf("%s: figure %d declares cell %s, which parses to %s (%v)", tc.name, i, c, sp, err)
					}
				}
			}
		}
		camp, timing := union(figs)
		sameSet := func(kind string, got, want []campaign.Cell) {
			if len(got) != len(want) {
				t.Errorf("%s: %d %s cells, want %d", tc.name, len(got), kind, len(want))
			}
			set := map[campaign.Cell]bool{}
			for _, c := range want {
				set[c] = true
			}
			for _, c := range got {
				if !set[c] {
					t.Errorf("%s: %s cell %s twice or not wanted", tc.name, kind, c)
				}
				delete(set, c)
			}
			for c := range set {
				t.Errorf("%s: %s cell %s missing", tc.name, kind, c)
			}
		}
		sameSet("campaign", camp, tc.campaign)
		sameSet("timing", timing, tc.timing)
	}
}

// TestSingleFigureMatchesAll checks that every table renders the same
// from All's shared plan as from its own figure's plan, and at one
// worker as at three. A figure that reads a cell it does not declare
// fails its own plan here.
func TestSingleFigureMatchesAll(t *testing.T) {
	o := quick()
	o.Benchmarks = []string{"bzip2"}
	o.Workers = 1
	all, err := All(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 3
	single := []*Table{Table1(), Table2()}
	for _, fig := range []func(Options) (*Table, error){Fig6, Fig7, Fig8a, Fig8b, Fig9, Fig10, Fig11} {
		tb, err := fig(o)
		if err != nil {
			t.Fatal(err)
		}
		single = append(single, tb)
	}
	f12, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	single = append(single, f12...)
	if len(all) != len(single) {
		t.Fatalf("All returned %d tables, the figures %d", len(all), len(single))
	}
	for i := range all {
		if !reflect.DeepEqual(all[i], single[i]) {
			t.Errorf("table %s from All differs from its own figure's:\n%s\nvs\n%s", all[i].ID, all[i].Render(), single[i].Render())
		}
	}
}

func TestUnknownBenchmarkError(t *testing.T) {
	o := quick()
	o.Benchmarks = []string{"nope"}
	if _, err := Fig6(o); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

// TestExtensionsQuick checks the extension tables' shapes, and that
// Extensions' shared plan renders each the same as its own figure's
// plan at another worker count.
func TestExtensionsQuick(t *testing.T) {
	o := QuickOptions()
	o.Fault.Injections = 40
	o.Benchmarks = []string{"bzip2"}
	o.Workers = 1

	fs, err := ExtFilterSize(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Rows) != 2 || len(fs.Columns) != 5 {
		t.Fatalf("ext-filters shape: %dx%d", len(fs.Rows), len(fs.Columns))
	}

	d, err := ExtStateDepth(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 1 || len(d.Columns) != 5 {
		t.Fatalf("ext-depth shape: %dx%d", len(d.Rows), len(d.Columns))
	}

	s, err := ExtFullSRT(o)
	if err != nil {
		t.Fatal(err)
	}
	last := s.Rows[len(s.Rows)-1]
	if last[0] != "mean(all)" {
		t.Fatalf("ext-srt last row: %v", last)
	}

	o.Workers = 3
	all, err := Extensions(o)
	if err != nil {
		t.Fatal(err)
	}
	single := []*Table{fs, d, s}
	if len(all) != len(single) {
		t.Fatalf("Extensions returned %d tables, want %d", len(all), len(single))
	}
	for i := range all {
		if !reflect.DeepEqual(all[i], single[i]) {
			t.Errorf("table %s from Extensions differs from its own figure's:\n%s\nvs\n%s", all[i].ID, all[i].Render(), single[i].Render())
		}
	}
}

func TestRunFPRate(t *testing.T) {
	var r Run
	if r.FPRate() != 0 {
		t.Fatal("empty run should have zero FP rate")
	}
	r.Committed = 100
	r.DetectorDelta.Replays = 3
	r.DetectorDelta.Rollbacks = 1
	r.DetectorDelta.Singletons = 1
	if got := r.FPRate(); got != 0.05 {
		t.Fatalf("FPRate = %v, want 0.05", got)
	}
}

func TestSchemeDetectors(t *testing.T) {
	// Every non-baseline scheme resolves to a detector through the
	// registry; SRT schemes and baseline do not.
	o := DefaultOptions()
	withDet := []Scheme{PBFS, PBFSBiased, FHBackend, FaultHound, FHBENoLSQ, FHBENo2Level, FHBENoClust, FHBEFullRB}
	for _, s := range withDet {
		sp, err := scheme.Parse(string(s))
		if err != nil {
			t.Errorf("scheme %s does not parse: %v", s, err)
			continue
		}
		inst, err := scheme.Build(sp, o.SchemeEnv())
		if err != nil {
			t.Errorf("scheme %s does not build: %v", s, err)
			continue
		}
		if inst.NewDetector == nil || inst.NewDetector() == nil {
			t.Errorf("scheme %s has no detector", s)
		}
	}
	for _, s := range []Scheme{Baseline, SRTIso, SRTFull} {
		inst, err := scheme.Build(scheme.Spec{Name: string(s)}, o.SchemeEnv())
		if err != nil {
			t.Errorf("scheme %s does not build: %v", s, err)
			continue
		}
		if inst.NewDetector != nil {
			t.Errorf("scheme %s should have no detector", s)
		}
	}
}

func TestTableJSON(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Columns: []string{"a"}, Notes: []string{"n"}}
	tb.AddRow("1")
	j := tb.JSON()
	for _, want := range []string{`"id": "x"`, `"columns"`, `"1"`, `"n"`} {
		if !strings.Contains(j, want) {
			t.Fatalf("JSON missing %q:\n%s", want, j)
		}
	}
}

func TestMPScalingQuick(t *testing.T) {
	o := QuickOptions()
	o.MeasureCommits = 12000
	tb, err := MPScaling(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("mp-scaling rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "1" || tb.Rows[3][0] != "8" {
		t.Fatalf("core counts wrong: %v", tb.Rows)
	}
}

func TestCharacterizeQuick(t *testing.T) {
	o := quick()
	tb, err := Characterize(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 || len(tb.Columns) != 9 {
		t.Fatalf("workloads table shape: %dx%d", len(tb.Rows), len(tb.Columns))
	}
}

// TestTimingRunDetectorDelta: a timing run's DetectorDelta holds every
// detector counter the measured window added — the energy model prices
// TCAM searches and updates and table reads and writes from it, not
// only the action counts. The test repeats the run's recipe on its own
// core and compares each field of the delta with the counter after the
// window minus before it.
func TestTimingRunDetectorDelta(t *testing.T) {
	o := QuickOptions()
	bm, err := workload.Resolve("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := scheme.Parse(string(FaultHound))
	if err != nil {
		t.Fatal(err)
	}
	run, err := o.TimingRunSpec(bm, sp)
	if err != nil {
		t.Fatal(err)
	}
	c, err := o.BuildCoreSpec(bm, sp, o.Threads)
	if err != nil {
		t.Fatal(err)
	}
	c.WarmDetector(o.DetectorWarmupInstr)
	c.Run(o.WarmupCycles)
	before := reflect.ValueOf(c.DetectorStats())
	if !c.RunUntilCommits(0, c.Committed(0)+o.MeasureCommits, o.MaxCycles) {
		t.Fatal("the repeated run did not reach its commit budget")
	}
	after := reflect.ValueOf(c.DetectorStats())
	delta := reflect.ValueOf(run.DetectorDelta)
	for i := 0; i < delta.NumField(); i++ {
		want := after.Field(i).Uint() - before.Field(i).Uint()
		if got := delta.Field(i).Uint(); got != want {
			t.Errorf("DetectorDelta.%s = %d, want %d", delta.Type().Field(i).Name, got, want)
		}
	}
	if run.DetectorDelta.TCAMSearches == 0 {
		t.Error("the window made no TCAM search: the check is vacuous")
	}
}

// TestTimingRunEnergy: a timing run prices its energy once, over the
// measured window's detector counters, with the TCAM sized by the
// spec's tcam parameter, and the figures' timing recipe reads that
// price.
func TestTimingRunEnergy(t *testing.T) {
	o := QuickOptions()
	bm, err := workload.Resolve("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := scheme.Parse("faulthound?tcam=8")
	if err != nil {
		t.Fatal(err)
	}
	run, err := o.TimingRunSpec(bm, sp)
	if err != nil {
		t.Fatal(err)
	}
	ps, ms := run.Core.Stats(), run.Core.MemStats()
	model := energy.Default()
	model.TCAMEntries = 8
	want := model.Compute(ps, ms, run.DetectorDelta)
	if run.Energy != want {
		t.Errorf("Run.Energy = %+v, want %+v", run.Energy, want)
	}
	// Both wrong recipes price the detector differently, so the check
	// above tells them apart.
	if cum := model.Compute(ps, ms, run.Core.DetectorStats()); cum.Detector == want.Detector {
		t.Error("the cumulative detector counters price the same as the window's: the check is vacuous")
	}
	if dflt := energy.Default().Compute(ps, ms, run.DetectorDelta); dflt.Detector == want.Detector {
		t.Error("a 32-entry TCAM prices the same as an 8-entry one: the check is vacuous")
	}
	tm, err := o.TimingRunner()("bzip2", sp)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Energy != want.Total() {
		t.Errorf("TimingRunner energy = %v, want %v", tm.Energy, want.Total())
	}
}

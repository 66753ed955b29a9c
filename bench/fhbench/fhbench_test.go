package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4}, 1, 4, 5},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if med := median(c.xs); q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	cases := []struct {
		n, pct int
		v      float64
	}{
		{10, 0, 0}, // no sample can have ten beyond it
		{11, 9, 1},
		{32, 68, 22},
		{1000, 99, 990},
	}
	for _, c := range cases {
		pct, v := tail(seq(c.n))
		if pct != c.pct || v != c.v {
			t.Errorf("n=%d: got p%d=%v, want p%d=%v", c.n, pct, v, c.pct, c.v)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	tput := metricDef{Name: "inj_per_s", Better: "higher", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.10, Floor: 0.02}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"unchanged", tput, steady, []float64{99, 100, 101, 100, 98}, within},
		{"faster", tput, steady, []float64{150, 151, 149, 150, 150}, within},
		{"slower beyond bound", tput, steady, []float64{80, 81, 79, 80, 80}, worse},
		{"slower within bound", tput, steady, []float64{95, 96, 94, 95, 95}, within},
		{"spread wider than bound", tput, []float64{60, 140, 100, 70, 130}, []float64{80, 81, 79, 80, 80}, unresolved},
		{"wide but every run better", tput, []float64{60, 70, 65, 62, 68}, []float64{80, 120, 100, 90, 110}, within},
		// 0.010 s to 0.025 s is +150%, but within the 0.02 s floor.
		{"floor absorbs a tiny time", setup, []float64{0.010, 0.011, 0.010}, []float64{0.025, 0.024, 0.025}, within},
		{"beyond the floor", setup, []float64{0.010, 0.011, 0.010}, []float64{0.045, 0.044, 0.045}, worse},
	}
	for _, c := range cases {
		if _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

// at builds a span on a fixed timeline, in milliseconds.
func at(id, parent int, layer string, track int, from, to int) span {
	t0 := time.Unix(0, 0)
	return span{ID: id, Parent: parent, Layer: layer, Track: track,
		Start: t0.Add(time.Duration(from) * time.Millisecond), End: t0.Add(time.Duration(to) * time.Millisecond)}
}

func TestSelfTimesSubtractTheUnionOfChildren(t *testing.T) {
	spans := []span{
		at(1, 0, "campaign", 0, 0, 10),
		at(2, 1, "fault", 1, 1, 4),
		at(3, 1, "fault", 2, 3, 6), // overlaps span 2: covered once
		at(4, 3, "pipeline", 2, 5, 9),
	}
	got := selfTimes(spans)
	want := map[string]float64{"campaign": 0.005, "fault": 0.003 + 0.002, "pipeline": 0.004}
	for l, w := range want {
		if d := got[l] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s self time %v, want %v", l, got[l], w)
		}
	}
}

func TestLedgerAccountsForTheRun(t *testing.T) {
	run := at(1, 0, "campaign", 0, 0, 10)
	spans := []span{run,
		at(2, 1, "fault", 1, 1, 3), at(3, 1, "fault", 1, 4, 9),
		at(4, 1, "fault", 2, 2, 8),
	}
	l := ledgerOf(run, spans, 2)
	near := func(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }
	if !near(l.Head, 0.001) || !near(l.Tail, 0.001) || !near(l.Busy, 0.013) || !near(l.Idle, 0.003) || l.closure() > 1e-9 {
		t.Fatalf("ledger %+v, closure %v", l, l.closure())
	}
	// Two spans overlapping on one track are double-counted busy time:
	// the ledger must stop closing.
	spans = append(spans, at(5, 1, "fault", 2, 3, 7))
	if c := ledgerOf(run, spans, 2).closure(); c < 0.1 {
		t.Fatalf("overlapping spans on one track gave closure %v", c)
	}
}

// TestBenchmarkJSONMatchesDefs keeps the repository's BENCHMARK.json and
// the definitions fhbench prints and judges by in step.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, fhbench %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %s (%s) in fhbench", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, fhbench %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v in fhbench", i, m, d)
		}
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v in fhbench", i, m, d)
		}
	}
}

// TestSmokeEveryWorkload runs one untraced and one traced round of every
// workload at toy size, so a change to any layer API the benchmark calls
// fails here, and checks that both rounds pass every check, agree with
// each other, and produce every metric.
func TestSmokeEveryWorkload(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			trace := filepath.Join(t.TempDir(), "trace.json")
			var rounds []*roundResult
			for _, traced := range []bool{false, true} {
				cfg := roundConfig{Workload: w.name, Seed: defaultSeed, Traced: traced, Toy: true,
					Root: root, Dir: t.TempDir(), TracePath: trace}
				rounds = append(rounds, runRound(cfg))
			}
			if errs := verify(w, rounds, defaultSeed, nil); len(errs) > 0 {
				t.Fatal(errs)
			}
			wr := summarizeWorkload(w, rounds[:1], rounds[1:])
			if err := checkComplete(endToEnd, wr.EndToEnd); err != nil {
				t.Error(err)
			}
			if err := checkComplete(perLayer, wr.PerLayer); err != nil {
				t.Error(err)
			}
			if wr.Failed != 0 || wr.Attempted == 0 {
				t.Errorf("%d of %d ops failed", wr.Failed, wr.Attempted)
			}
			if _, err := os.Stat(trace); err != nil {
				t.Error(err)
			}
		})
	}
}

package search

import (
	"context"
	"math"
	"strings"
	"testing"

	"faulthound/internal/contract"
	"faulthound/internal/pspec"
	"faulthound/internal/scheme"
	"faulthound/internal/stats"
)

func TestParseWeights(t *testing.T) {
	w, err := ParseWeights("")
	if err != nil || w != DefaultWeights() {
		t.Fatalf("empty weights = %+v, %v", w, err)
	}
	w, err = ParseWeights("coverage=2,fp=0.5, energy=0 ,perf=3")
	if err != nil {
		t.Fatal(err)
	}
	if w != (Weights{Coverage: 2, FPRate: 0.5, Energy: 0, Perf: 3}) {
		t.Fatalf("weights = %+v", w)
	}
	for _, bad := range []string{"coverage", "sdc=1", "fp=x"} {
		if _, err := ParseWeights(bad); err == nil {
			t.Errorf("ParseWeights(%q) accepted", bad)
		}
	}
}

func TestDominates(t *testing.T) {
	a := Metrics{Coverage: 0.8, FPRate: 0.01, EnergyOverhead: 0.1, PerfOverhead: 0.05}
	b := Metrics{Coverage: 0.7, FPRate: 0.02, EnergyOverhead: 0.2, PerfOverhead: 0.05}
	if !a.Dominates(b) {
		t.Error("a should dominate b")
	}
	if b.Dominates(a) {
		t.Error("b should not dominate a")
	}
	if a.Dominates(a) {
		t.Error("a point must not dominate itself (no strict improvement)")
	}
	// Trade-off: higher coverage but higher cost — incomparable.
	c := Metrics{Coverage: 0.9, FPRate: 0.05, EnergyOverhead: 0.3, PerfOverhead: 0.1}
	if a.Dominates(c) || c.Dominates(a) {
		t.Error("a and c should be mutually non-dominated")
	}
}

func TestFitnessSanitized(t *testing.T) {
	m := Metrics{Coverage: 1, FPRate: 0, EnergyOverhead: 0, PerfOverhead: 0}
	if got := m.Fitness(DefaultWeights()); got != 1 {
		t.Errorf("fitness = %v, want 1", got)
	}
	bad := Metrics{Coverage: math.NaN(), EnergyOverhead: math.Inf(1), PerfOverhead: math.Inf(-1)}
	got := bad.sanitize()
	if got != (Metrics{}) {
		t.Errorf("sanitize kept NaN/Inf: %+v", got)
	}
	if f := bad.Fitness(DefaultWeights()); math.IsNaN(f) || math.IsInf(f, 0) {
		t.Errorf("fitness of degenerate metrics = %v", f)
	}
}

// syntheticEval scores tcam monotonically: coverage grows and cost
// grows with the table size, so every distinct tcam lands on the
// front and the driver has an unbounded supply of useful mutations.
func syntheticEval(calls *[][]string) Evaluate {
	return func(_ context.Context, specs []scheme.Spec) ([]Metrics, error) {
		var names []string
		out := make([]Metrics, len(specs))
		for i, sp := range specs {
			names = append(names, sp.String())
			v, err := scheme.ValuesOf(sp)
			if err != nil {
				return nil, err
			}
			n := float64(v.Int("tcam"))
			out[i] = Metrics{
				Coverage:       n / (n + 8),
				FPRate:         0.001 * n,
				EnergyOverhead: 0.01 * n,
				PerfOverhead:   0.005 * n,
			}
		}
		*calls = append(*calls, names)
		return out, nil
	}
}

func runSynthetic(t *testing.T, seed uint64, budget int) (*Result, [][]string) {
	t.Helper()
	var calls [][]string
	base, err := scheme.Parse("faulthound")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Seed:    seed,
		Budget:  budget,
		PopSize: 3,
		Weights: DefaultWeights(),
		Base:    []scheme.Spec{base},
		Params:  []string{"tcam"},
		Eval:    syntheticEval(&calls),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, calls
}

func TestRunDeterministic(t *testing.T) {
	a, callsA := runSynthetic(t, 42, 8)
	b, callsB := runSynthetic(t, 42, 8)
	if len(a.Points) != len(b.Points) {
		t.Fatalf("run sizes differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Errorf("point %d differs: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
	if len(callsA) != len(callsB) {
		t.Fatalf("evaluation batches differ: %d vs %d", len(callsA), len(callsB))
	}
	for i := range callsA {
		if strings.Join(callsA[i], " ") != strings.Join(callsB[i], " ") {
			t.Errorf("batch %d differs: %v vs %v", i, callsA[i], callsB[i])
		}
	}
}

func TestRunRespectsBudget(t *testing.T) {
	res, _ := runSynthetic(t, 1, 5)
	if res.Evaluated > 5 {
		t.Errorf("evaluated %d specs, budget 5", res.Evaluated)
	}
	if res.Evaluated == 0 {
		t.Error("evaluated nothing")
	}
	// Every distinct tcam is mutually non-dominated under the
	// synthetic objectives, so the whole archive is the front.
	for _, p := range res.Points {
		if !p.Front {
			t.Errorf("%s unexpectedly dominated", p.Spec)
		}
	}
	// Archive must be deduplicated.
	seen := map[string]bool{}
	for _, p := range res.Points {
		if seen[p.Spec] {
			t.Errorf("spec %s evaluated twice", p.Spec)
		}
		seen[p.Spec] = true
	}
}

func TestRunConfigErrors(t *testing.T) {
	base := scheme.Spec{Name: "faulthound"}
	eval := func(context.Context, []scheme.Spec) ([]Metrics, error) { return nil, nil }
	cases := []Config{
		{Budget: 3, Base: []scheme.Spec{base}},             // no evaluator
		{Budget: 3, Eval: eval},                            // no base
		{Budget: 0, Eval: eval, Base: []scheme.Spec{base}}, // no budget
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: Run accepted invalid config", i)
		}
	}
}

func TestMutateStaysInRange(t *testing.T) {
	rng := stats.NewRNG(3)
	sp, err := scheme.Parse("faulthound")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		child, ok := mutate(rng, sp, nil)
		if !ok {
			t.Fatal("faulthound should always be mutable")
		}
		if _, err := scheme.Parse(child.String()); err != nil {
			t.Fatalf("mutation produced invalid spec %q: %v", child, err)
		}
		sp = child
	}
}

// TestMutateRespectsMax: an integer mutation never leaves the
// parameter's declared range, even where 8×default would exceed Max
// (tcam: default 32, Max 64).
func TestMutateRespectsMax(t *testing.T) {
	sc, ok := scheme.Lookup("faulthound")
	if !ok {
		t.Fatal("faulthound not registered")
	}
	var tcam pspec.Param
	for _, p := range sc.Params {
		if p.Name == "tcam" {
			tcam = p
		}
	}
	if tcam.Max != 64 {
		t.Fatalf("tcam Max = %d, want 64", tcam.Max)
	}
	rng := stats.NewRNG(5)
	n := tcam.Max
	for i := 0; i < 500; i++ {
		n = mutateInt(rng, n, tcam)
		if n < tcam.Min || n > tcam.Max {
			t.Fatalf("mutation %d produced tcam=%d outside [%d, %d]", i, n, tcam.Min, tcam.Max)
		}
	}
}

// TestCanonicalParams: the allow-list is trimmed, sorted and
// deduplicated, and a name no base scheme declares as mutable is an
// error instead of a search that silently never mutates.
func TestCanonicalParams(t *testing.T) {
	base := []scheme.Spec{scheme.FromString("faulthound"), scheme.FromString("pbfs")}
	got, err := CanonicalParams(base, []string{"tcam", " entries ", "", "delay", "tcam"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "delay,entries,tcam" {
		t.Errorf("canonical params = %v", got)
	}
	if got, err := CanonicalParams(base, []string{" "}); err != nil || got != nil {
		t.Errorf("blank list = %v, %v; want nil (every mutable parameter)", got, err)
	}
	for _, bad := range [][]string{{"tcma"}, {"entries"}} {
		b := base
		if bad[0] == "entries" {
			b = base[:1] // faulthound declares no entries parameter
		}
		if _, err := CanonicalParams(b, bad); err == nil {
			t.Errorf("CanonicalParams(%v, %v) accepted", b, bad)
		}
	}
}

func TestWithParam(t *testing.T) {
	sp := scheme.FromString("faulthound?delay=6,tcam=16")
	got := withParam(sp, "tcam", "8")
	if got != "faulthound?delay=6,tcam=8" {
		t.Errorf("withParam = %q", got)
	}
	got = withParam(scheme.FromString("faulthound"), "lsq", "off")
	if got != "faulthound?lsq=off" {
		t.Errorf("withParam on bare spec = %q", got)
	}
}

func TestReportArtifacts(t *testing.T) {
	res, _ := runSynthetic(t, 9, 6)
	rep := NewReport("t", []string{"b1"}, Config{Seed: 9, Budget: 6, Weights: DefaultWeights()}, res)
	dir := t.TempDir()
	if err := rep.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(dir + "/" + JSONName)
	if err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != contract.ParetoV1 || len(back.Points) != len(rep.Points) {
		t.Errorf("round-trip mismatch: %+v", back)
	}
	csv := string(rep.CSV())
	if !strings.HasPrefix(csv, strings.Join(contract.ParetoColumns(), ",")+"\n") {
		t.Errorf("csv header wrong:\n%s", csv)
	}
	if strings.Count(csv, "\n") != len(rep.Points)+1 {
		t.Errorf("csv row count wrong:\n%s", csv)
	}
	if err := contract.ValidateParetoDir(dir); err != nil {
		t.Error(err)
	}
}

package search_test

// End-to-end optimizer determinism: a tiny seeded search over two
// generated benchmarks must produce a non-trivial Pareto front and
// byte-identical pareto.csv for any worker count (the satellite
// acceptance criterion). The golden file under testdata/golden pins
// the artifact bytes; `go test -update-golden` refreshes it.

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"faulthound/internal/harness"
	"faulthound/internal/scheme"
	"faulthound/internal/search"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden artifacts")

// goldenBenches are cheap generated workloads (docs/GENERATED-
// WORKLOADS.md): small segments keep golden preparation fast while
// the stride variant gives the objectives a second data point.
var goldenBenches = []string{"gen?seg=16k", "gen?seg=16k,stride=64"}

func goldenConfig(t *testing.T, workers int) (search.Config, []string) {
	t.Helper()
	o := harness.QuickOptions()
	o.Workers = workers
	o.Fault.Injections = 96
	base, err := scheme.Parse("faulthound?tcam=8")
	if err != nil {
		t.Fatal(err)
	}
	ev := o.NewEvaluator(nil, nil)
	cfg := search.Config{
		Seed:    7,
		Budget:  6,
		PopSize: 3,
		Weights: search.DefaultWeights(),
		Base:    []scheme.Spec{base},
		Params:  []string{"tcam", "delay", "loosen"},
		Eval:    search.CampaignEval(ev, goldenBenches),
	}
	return cfg, goldenBenches
}

func runGolden(t *testing.T, workers int) *search.Report {
	t.Helper()
	cfg, benches := goldenConfig(t, workers)
	res, err := search.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return search.NewReport("golden", benches, cfg, res)
}

func TestGoldenParetoDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end search in -short mode")
	}
	rep := runGolden(t, 1)

	if len(rep.Points) == 0 {
		t.Fatal("search evaluated nothing")
	}
	front := rep.Front()
	if len(front) < 2 {
		t.Fatalf("Pareto front has %d member(s), want >= 2:\n%s", len(front), rep.CSV())
	}

	csv := rep.CSV()
	golden := filepath.Join("testdata", "golden", "pareto.csv")
	if *updateGolden {
		jb, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, csv, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "golden", "pareto.json"), jb, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/search -update-golden): %v", err)
	}
	if string(csv) != string(want) {
		t.Errorf("pareto.csv drifted from golden:\n got:\n%s\nwant:\n%s", csv, want)
	}

	// Worker-count independence: the execute layer is bit-identical for
	// any pool size, so the whole search must be too.
	rep4 := runGolden(t, 4)
	if string(rep4.CSV()) != string(csv) {
		t.Errorf("pareto.csv differs between -workers 1 and 4:\n w1:\n%s\n w4:\n%s", csv, rep4.CSV())
	}
}

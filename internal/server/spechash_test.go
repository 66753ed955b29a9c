package server

import (
	"encoding/json"
	"testing"

	"faulthound/internal/campaign"
	"faulthound/internal/fault"
	"faulthound/internal/scheme"
	"faulthound/internal/wgen"
)

func baseCfg() fault.Config {
	cfg := fault.DefaultConfig()
	cfg.Injections = 50
	return cfg
}

// mustNormalize is NormalizeSpec for specs the test knows are valid.
func mustNormalize(t *testing.T, spec campaign.Spec, base fault.Config) campaign.Spec {
	t.Helper()
	n, err := NormalizeSpec(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSpecHashCanonicalization: semantically identical specs hash
// equal; anything that changes results hashes differently.
func TestSpecHashCanonicalization(t *testing.T) {
	base := baseCfg()
	ref := campaign.Spec{
		Benchmarks: []string{"bzip2", "mcf"},
		Schemes:    []string{"faulthound"},
		Fault:      base,
	}
	refHash := SpecHash(mustNormalize(t, ref, base), "commit-a")

	same := []campaign.Spec{
		// Explicit baseline and duplicate schemes collapse.
		{Benchmarks: []string{"bzip2", "mcf"}, Schemes: []string{"baseline", "faulthound", "faulthound"}, Fault: base},
		// Duplicate benchmarks collapse.
		{Benchmarks: []string{"bzip2", "mcf", "bzip2"}, Schemes: []string{"faulthound"}, Fault: base},
		// RunID and Workers are scheduling/labeling, not identity.
		{RunID: "other", Benchmarks: []string{"bzip2", "mcf"}, Schemes: []string{"faulthound"}, Workers: 7, Fault: base},
		// Zero-valued fault fields fill from the base config.
		{Benchmarks: []string{"bzip2", "mcf"}, Schemes: []string{"faulthound"},
			Fault: fault.Config{Injections: 50, Seed: base.Seed}},
		// Default-valued and reordered parameters canonicalize away, so a
		// parameterized spelling of the defaults is the same job.
		{Benchmarks: []string{"bzip2", "mcf"}, Schemes: []string{"faulthound?tcam=32,delay=7"}, Fault: base},
		{Benchmarks: []string{"bzip2", "mcf"}, Schemes: []string{"faulthound?delay=7,tcam=32"}, Fault: base},
	}
	for i, s := range same {
		if h := SpecHash(mustNormalize(t, s, base), "commit-a"); h != refHash {
			t.Errorf("spec %d: hash %s, want %s (should be identical)", i, h, refHash)
		}
	}

	diffSeed, diffScheme, diffBench, diffInj, diffParam := ref, ref, ref, ref, ref
	diffSeed.Fault.Seed++
	diffScheme.Schemes = []string{"pbfs"}
	diffBench.Benchmarks = []string{"mcf", "bzip2"} // row order is identity
	diffInj.Fault.Injections = 51
	diffParam.Schemes = []string{"faulthound?tcam=16"} // non-default parameter is identity
	for name, s := range map[string]campaign.Spec{
		"seed": diffSeed, "scheme": diffScheme, "bench-order": diffBench,
		"injections": diffInj, "param": diffParam,
	} {
		if h := SpecHash(mustNormalize(t, s, base), "commit-a"); h == refHash {
			t.Errorf("%s variant hashed identically", name)
		}
	}

	// A different source revision is a different job.
	if SpecHash(mustNormalize(t, ref, base), "commit-b") == refHash {
		t.Error("different git commit hashed identically")
	}
}

// TestSpecHashFieldOrder: JSON field order of the submitted document
// does not affect the hash (both decode to one normalized spec).
func TestSpecHashFieldOrder(t *testing.T) {
	base := baseCfg()
	a := `{"benchmarks":["bzip2"],"schemes":["faulthound"],"fault":{"Injections":50,"Seed":4}}`
	b := `{"fault":{"Seed":4,"Injections":50},"schemes":["faulthound"],"benchmarks":["bzip2"]}`
	var sa, sb campaign.Spec
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	ha := SpecHash(mustNormalize(t, sa, base), "c")
	hb := SpecHash(mustNormalize(t, sb, base), "c")
	if ha != hb {
		t.Fatalf("field order changed the hash: %s != %s", ha, hb)
	}
}

// TestNormalizeSpec pins the canonical form itself.
func TestNormalizeSpec(t *testing.T) {
	base := baseCfg()
	n := mustNormalize(t, campaign.Spec{
		RunID:      "x",
		Benchmarks: []string{"mcf", "bzip2", "mcf"},
		Schemes:    []string{"baseline", "pbfs", "pbfs"},
		Workers:    3,
		Fault:      fault.Config{Seed: 9},
	}, base)
	if n.RunID != "" || n.Workers != 0 {
		t.Fatalf("RunID/Workers not erased: %+v", n)
	}
	if len(n.Benchmarks) != 2 || n.Benchmarks[0] != "mcf" || n.Benchmarks[1] != "bzip2" {
		t.Fatalf("benchmarks = %v", n.Benchmarks)
	}
	if len(n.Schemes) != 1 || n.Schemes[0] != "pbfs" {
		t.Fatalf("schemes = %v", n.Schemes)
	}
	if n.Fault.Seed != 9 || n.Fault.Injections != base.Injections || n.Fault.WindowInstr != base.WindowInstr {
		t.Fatalf("fault not default-filled: %+v", n.Fault)
	}

	// Sweep syntax fans out into individual canonical specs.
	n = mustNormalize(t, campaign.Spec{
		Benchmarks: []string{"bzip2"},
		Schemes:    []string{"faulthound?tcam=8|16|32"},
		Fault:      fault.Config{Seed: 9},
	}, base)
	want := []string{"faulthound?tcam=8", "faulthound?tcam=16", "faulthound"}
	if len(n.Schemes) != len(want) {
		t.Fatalf("sweep schemes = %v", n.Schemes)
	}
	for i, w := range want {
		if n.Schemes[i] != w {
			t.Errorf("sweep schemes[%d] = %q, want %q", i, n.Schemes[i], w)
		}
	}

	// Workload specs canonicalize and fan out the same way; plain
	// benchmark names pass through unchanged.
	n = mustNormalize(t, campaign.Spec{
		Benchmarks: []string{"bzip2", "gen?stride=8|64,vlocal=0.9"},
		Schemes:    []string{"faulthound"},
		Fault:      fault.Config{Seed: 9},
	}, base)
	wantB := []string{"bzip2", "gen", "gen?stride=64"}
	if len(n.Benchmarks) != len(wantB) {
		t.Fatalf("workload sweep benchmarks = %v", n.Benchmarks)
	}
	for i, w := range wantB {
		if n.Benchmarks[i] != w {
			t.Errorf("workload sweep benchmarks[%d] = %q, want %q", i, n.Benchmarks[i], w)
		}
	}

	// Unknown schemes and malformed or out-of-range specs are spec
	// errors (the daemon answers them with a structured 400).
	for _, schemes := range [][]string{{"nope"}, {"faulthound?tcam=zap"}, {"faulthound?tcam=65"}} {
		_, err := NormalizeSpec(campaign.Spec{Benchmarks: []string{"bzip2"}, Schemes: schemes, Fault: base}, base)
		if err == nil || !scheme.IsSpecError(err) {
			t.Errorf("schemes %v: err = %v, want a spec error", schemes, err)
		}
	}

	// Unknown workloads and malformed workload specs are workload-domain
	// spec errors (never scheme-domain: the 400 shapes differ).
	for _, benches := range [][]string{{"nope"}, {"gen?stride=zap"}, {"gen?bogus=1"}} {
		_, err := NormalizeSpec(campaign.Spec{Benchmarks: benches, Schemes: []string{"faulthound"}, Fault: base}, base)
		if err == nil || !wgen.IsSpecError(err) {
			t.Errorf("benchmarks %v: err = %v, want a workload spec error", benches, err)
		}
		if scheme.IsSpecError(err) {
			t.Errorf("benchmarks %v: workload spec error satisfies scheme.IsSpecError", benches)
		}
	}
}

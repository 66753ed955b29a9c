// Package campaign orchestrates statistical fault-injection campaigns
// at scale: it fans the injections of every benchmark×scheme cell
// across a pool of workers, journals each completed injection so an
// interrupted campaign resumes from where it stopped, and writes a
// provenance-stamped artifact bundle (manifest.json, results.csv,
// summary.json, report.md) that records exactly what produced a number.
//
// Determinism: every injection's randomness is sealed in its pre-drawn
// descriptor (fault.DrawInjections), workers share only read-only
// golden state (fault.Prepared), and results are keyed by (cell,
// descriptor index) — so the artifact bundle is bit-identical for any
// worker count, and a resumed campaign reproduces the uninterrupted
// bundle byte for byte.
package campaign

import (
	"fmt"
	"runtime"

	"faulthound/internal/fault"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
	"faulthound/internal/stats"
)

// BaselineScheme is the scheme name of the unprotected pairing basis.
// Every campaign runs a baseline cell per benchmark: coverage is
// defined against it.
const BaselineScheme = "baseline"

// BaselineSpec is BaselineScheme as a resolved scheme spec — the cell
// key of every pairing-basis cell.
var BaselineSpec = scheme.Spec{Name: BaselineScheme}

// Spec declares a campaign: which benchmark×scheme cells to run and
// with what fault configuration. The spec is stored verbatim in
// manifest.json; a resume run must present an equivalent spec.
type Spec struct {
	// RunID names the campaign (directory names, report headers). The
	// CLI defaults it to a UTC timestamp.
	RunID string `json:"run_id"`
	// Benchmarks lists the workloads, in execution order.
	Benchmarks []string `json:"benchmarks"`
	// Schemes lists the detection schemes under test, as canonical
	// scheme spec strings ("faulthound", "faulthound?tcam=16"). The
	// baseline is implicit: each benchmark always gets a baseline cell
	// first, and listing "baseline" explicitly is allowed but redundant.
	Schemes []string `json:"schemes"`
	// Workers sizes the injection worker pool; <= 0 means GOMAXPROCS.
	// Results do not depend on it.
	Workers int `json:"workers"`
	// Fault parameterizes every cell's campaign. All cells share one
	// seed: identical injection descriptor streams across schemes are
	// what make coverage pairing meaningful.
	Fault fault.Config `json:"fault"`
}

// Cell is one benchmark×scheme campaign of Spec.Fault.Injections
// injections. Scheme is a resolved scheme spec; its canonical string
// form is what journals, manifests, and result bundles record, so a
// plain scheme name serializes exactly as it always has.
type Cell struct {
	Bench  string      `json:"bench"`
	Scheme scheme.Spec `json:"scheme"`
}

// String renders the cell as "bench/scheme-spec".
func (c Cell) String() string { return c.Bench + "/" + c.Scheme.String() }

// Cells enumerates the campaign cells in deterministic execution
// order: benchmark-major, baseline first, then the spec's schemes in
// order (deduplicated on their canonical spec). Scheme strings are
// parsed syntactically — enumeration is total; validation happens when
// the CoreFactory resolves a cell.
func (s Spec) Cells() []Cell {
	var out []Cell
	for _, bm := range s.Benchmarks {
		out = append(out, Cell{bm, BaselineSpec})
		seen := map[scheme.Spec]bool{BaselineSpec: true}
		for _, sch := range s.Schemes {
			sp := scheme.FromString(sch)
			if !seen[sp] {
				seen[sp] = true
				out = append(out, Cell{bm, sp})
			}
		}
	}
	return out
}

// WorkerCount resolves the effective pool size: the spec's Workers, or
// GOMAXPROCS when unset. Trace consumers use it to pre-name the
// engine's per-worker tracks.
func (s Spec) WorkerCount() int {
	if s.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.Workers
}

// validate rejects specs the engine cannot execute.
func (s Spec) validate() error {
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("campaign: spec has no benchmarks")
	}
	return s.Fault.Validate()
}

// equivalent reports whether two specs describe the same campaign for
// resume purposes: identical cells and fault configuration. Workers and
// RunID may differ (a resume may use a different pool size).
func (s Spec) equivalent(o Spec) bool {
	a, b := s.Cells(), o.Cells()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return s.Fault == o.Fault
}

// CoreFactory builds the deterministic core constructor for one cell.
// It is how the engine stays independent of the experiment harness: the
// harness (or the CLI) supplies scheme resolution and core
// construction.
type CoreFactory func(bench string, sp scheme.Spec) (func() *pipeline.Core, error)

// CellSeed derives a decorrelated RNG for per-cell auxiliary draws
// (shard labels, sampling) from the campaign seed via stats.RNG.Split.
// The cell's injection stream itself always uses Spec.Fault.Seed
// directly — pairing across schemes requires it — but consumers that
// need extra per-cell randomness must go through here so streams stay
// deterministic and decorrelated regardless of cell order or worker
// count.
func CellSeed(seed uint64, c Cell) uint64 {
	rng := stats.NewRNG(seed)
	for _, s := range []string{c.Bench, c.Scheme.String()} {
		for _, b := range []byte(s) {
			rng = stats.NewRNG(rng.Uint64() ^ uint64(b))
		}
	}
	return rng.Split().Uint64()
}

// Package search is the score layer of the campaign stack: a
// deterministic, seeded evolutionary driver over the scheme registry's
// parameter space. It proposes scheme.Spec mutations from pspec
// parameter metadata, scores each configuration with a weighted
// multi-objective fitness over the execute layer's metrics (coverage,
// false-positive rate, energy overhead, perf overhead), prunes
// Pareto-dominated configurations, and reports the frontier as
// pareto.csv / pareto.json / pareto.md artifacts
// (contract faulthound.pareto/v1).
//
// Determinism: the only randomness is a stats.RNG seeded from
// Config.Seed, consumed in a fixed order by the single-threaded
// driver loop; the execute layer it calls is bit-identical for any
// worker count. Same seed + weights + budget ⇒ byte-identical
// artifacts.
package search

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"faulthound/internal/scheme"
	"faulthound/internal/stats"
)

// Weights scale the four objectives into one scalar fitness:
//
//	fitness = Coverage·coverage − FPRate·fp_rate − Energy·energy_overhead − Perf·perf_overhead
//
// Coverage is a benefit (positive sign); the other three are costs.
// Fitness only breaks ties inside the driver (parent selection, report
// ordering) — the Pareto front itself is weight-independent.
type Weights struct {
	Coverage float64 `json:"coverage"`
	FPRate   float64 `json:"fp"`
	Energy   float64 `json:"energy"`
	Perf     float64 `json:"perf"`
}

// DefaultWeights weighs every objective equally.
func DefaultWeights() Weights {
	return Weights{Coverage: 1, FPRate: 1, Energy: 1, Perf: 1}
}

// ParseWeights parses a "-fitness-weights" flag value: comma-separated
// key=value pairs over the keys coverage, fp, energy, perf. Missing
// keys keep their default weight of 1; an empty string is all
// defaults.
func ParseWeights(raw string) (Weights, error) {
	w := DefaultWeights()
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return w, nil
	}
	for _, tok := range strings.Split(raw, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(tok), "=")
		if !ok {
			return w, fmt.Errorf("search: bad weight %q (want key=value)", tok)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return w, fmt.Errorf("search: bad weight value %q for %s", v, k)
		}
		switch strings.TrimSpace(k) {
		case "coverage":
			w.Coverage = f
		case "fp":
			w.FPRate = f
		case "energy":
			w.Energy = f
		case "perf":
			w.Perf = f
		default:
			return w, fmt.Errorf("search: unknown weight %q (known: coverage, fp, energy, perf)", k)
		}
	}
	return w, nil
}

// String renders the weights in canonical flag form.
func (w Weights) String() string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return "coverage=" + f(w.Coverage) + ",fp=" + f(w.FPRate) +
		",energy=" + f(w.Energy) + ",perf=" + f(w.Perf)
}

// Metrics are one configuration's objective values, averaged over the
// benchmarks under search by the evaluator.
type Metrics struct {
	// Coverage is the paired SDC coverage in [0, 1] (higher is better).
	Coverage float64 `json:"coverage"`
	// FPRate is the fault-free detector action rate (lower is better).
	FPRate float64 `json:"fp_rate"`
	// EnergyOverhead is the fractional energy overhead vs baseline.
	EnergyOverhead float64 `json:"energy_overhead"`
	// PerfOverhead is the fractional cycle overhead vs baseline.
	PerfOverhead float64 `json:"perf_overhead"`
}

// sane maps NaN/Inf to 0 so a degenerate cell (zero-injection, zero
// baseline) cannot poison dominance comparisons or fitness sums.
func sane(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// sanitize returns m with every objective guarded through sane.
func (m Metrics) sanitize() Metrics {
	return Metrics{
		Coverage:       sane(m.Coverage),
		FPRate:         sane(m.FPRate),
		EnergyOverhead: sane(m.EnergyOverhead),
		PerfOverhead:   sane(m.PerfOverhead),
	}
}

// Fitness collapses the objectives under w.
func (m Metrics) Fitness(w Weights) float64 {
	return sane(w.Coverage*m.Coverage - w.FPRate*m.FPRate -
		w.Energy*m.EnergyOverhead - w.Perf*m.PerfOverhead)
}

// Dominates reports Pareto dominance: m is no worse than o on every
// objective (coverage ≥, the three costs ≤) and strictly better on at
// least one.
func (m Metrics) Dominates(o Metrics) bool {
	if m.Coverage < o.Coverage || m.FPRate > o.FPRate ||
		m.EnergyOverhead > o.EnergyOverhead || m.PerfOverhead > o.PerfOverhead {
		return false
	}
	return m.Coverage > o.Coverage || m.FPRate < o.FPRate ||
		m.EnergyOverhead < o.EnergyOverhead || m.PerfOverhead < o.PerfOverhead
}

// Point is one evaluated configuration in the search archive.
type Point struct {
	// Spec is the canonical scheme spec.
	Spec string `json:"spec"`
	// Round is the driver round (0-based) that evaluated the spec.
	Round int `json:"round"`
	Metrics
	// Fitness is the weighted scalar under the run's weights.
	Fitness float64 `json:"fitness"`
	// Front marks membership in the final Pareto front.
	Front bool `json:"front"`
}

// Evaluate scores a batch of proposed configurations, returning one
// Metrics per spec in order. CampaignEval over a campaign.Evaluator is
// the standard implementation; tests supply synthetic ones.
type Evaluate func(ctx context.Context, specs []scheme.Spec) ([]Metrics, error)

// Config parameterizes one search run.
type Config struct {
	// Seed drives every mutation draw.
	Seed uint64
	// Budget caps the number of distinct configurations evaluated
	// (benchmark baselines are free). The run stops when the budget is
	// spent or no undominated mutation remains.
	Budget int
	// PopSize is the number of parents kept per round (default 4).
	PopSize int
	// Weights scale the scalar fitness used for parent selection and
	// report ordering.
	Weights Weights
	// Base seeds round 0: the starting population, typically the plain
	// registry schemes under search. Required, non-empty.
	Base []scheme.Spec
	// Params optionally restricts mutation to these names (see
	// CanonicalParams); empty means every Int/Float/Bool parameter.
	Params []string
	// Eval scores proposals (required).
	Eval Evaluate
	// Log receives progress lines; nil disables them.
	Log func(format string, args ...any)
}

// Result is a finished search: the full evaluated archive with front
// membership resolved, front-first.
type Result struct {
	// Points holds every evaluated configuration: front members first
	// (fitness-descending, spec ascending), then dominated points in
	// the same order.
	Points []Point
	// Rounds counts driver rounds executed.
	Rounds int
	// Evaluated counts distinct configurations scored.
	Evaluated int
}

// Front returns the Pareto-front points (the leading run of Points).
func (r *Result) Front() []Point {
	n := 0
	for n < len(r.Points) && r.Points[n].Front {
		n++
	}
	return r.Points[:n]
}

// Run executes the search: evaluate the base population, then rounds
// of mutate-evaluate-prune until the budget is spent or the mutation
// space around the survivors is exhausted.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Eval == nil {
		return nil, fmt.Errorf("search: config has no evaluator")
	}
	if len(cfg.Base) == 0 {
		return nil, fmt.Errorf("search: config has no base population")
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("search: budget must be positive")
	}
	pop := cfg.PopSize
	if pop <= 0 {
		pop = 4
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	rng := stats.NewRNG(cfg.Seed)
	var archive []Point
	seen := make(map[string]bool)

	// Round 0 pending: the base population, deduplicated in order.
	var pending []scheme.Spec
	for _, sp := range cfg.Base {
		if key := sp.String(); !seen[key] {
			seen[key] = true
			pending = append(pending, sp)
		}
	}
	if len(pending) > cfg.Budget {
		pending = pending[:cfg.Budget]
	}

	rounds := 0
	for len(pending) > 0 {
		ms, err := cfg.Eval(ctx, pending)
		if err != nil {
			return nil, err
		}
		if len(ms) != len(pending) {
			return nil, fmt.Errorf("search: evaluator returned %d metrics for %d specs", len(ms), len(pending))
		}
		for i, sp := range pending {
			m := ms[i].sanitize()
			archive = append(archive, Point{
				Spec:    sp.String(),
				Round:   rounds,
				Metrics: m,
				Fitness: m.Fitness(cfg.Weights),
			})
		}
		rounds++
		markFront(archive)
		front := 0
		for i := range archive {
			if archive[i].Front {
				front++
			}
		}
		logf("search: round %d: %d evaluated, %d on front", rounds, len(archive), front)

		remaining := cfg.Budget - len(archive)
		if remaining <= 0 {
			break
		}
		parents := selectParents(archive, pop)
		pending = propose(rng, parents, cfg.Params, seen, min(pop, remaining))
		if len(pending) == 0 {
			logf("search: mutation space exhausted after %d evaluations", len(archive))
		}
		for _, sp := range pending {
			seen[sp.String()] = true
		}
	}

	sortArchive(archive)
	return &Result{Points: archive, Rounds: rounds, Evaluated: len(archive)}, nil
}

// markFront recomputes every archive point's Front flag by pairwise
// dominance.
func markFront(archive []Point) {
	for i := range archive {
		archive[i].Front = true
		for j := range archive {
			if i != j && archive[j].Metrics.Dominates(archive[i].Metrics) {
				archive[i].Front = false
				break
			}
		}
	}
}

// selectParents picks the next round's parents: front members first,
// then best-fitness dominated points, up to pop, in deterministic
// order (fitness descending, spec ascending).
func selectParents(archive []Point, pop int) []Point {
	sorted := make([]Point, len(archive))
	copy(sorted, archive)
	sortArchive(sorted)
	if len(sorted) > pop {
		sorted = sorted[:pop]
	}
	return sorted
}

// sortArchive orders points front-first, then fitness descending, then
// spec ascending — the canonical report order.
func sortArchive(pts []Point) {
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].Front != pts[j].Front {
			return pts[i].Front
		}
		if pts[i].Fitness != pts[j].Fitness {
			return pts[i].Fitness > pts[j].Fitness
		}
		return pts[i].Spec < pts[j].Spec
	})
}

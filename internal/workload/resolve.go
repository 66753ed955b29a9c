package workload

import (
	"fmt"
	"strings"

	"faulthound/internal/pspec"
	"faulthound/internal/wgen"
)

// resolve.go routes workload spec strings: a fixed benchmark name
// (Table-1 or micro) passes through unchanged, a generated-workload
// spec ("gen?...", "replay?trace=...") goes through internal/wgen and
// comes back canonical. Canonical strings are what campaign cells
// carry, so plain benchmark names keep their historical journal and
// spec-hash bytes.

// AllNames lists every resolvable workload name: Table-1 benchmarks,
// micro-workloads, then the generator names — the known_workloads
// list of error messages and the daemon's 400 shape.
func AllNames() []string {
	var out []string
	for _, b := range registry {
		out = append(out, b.Name)
	}
	for _, b := range Micro() {
		out = append(out, b.Name)
	}
	out = append(out, wgen.Names()...)
	return out
}

// unknown builds the workload-domain unknown-name error, so CLIs and
// the daemon surface the full resolvable list.
func unknown(name string) error {
	return &pspec.UnknownNameError{Domain: wgen.Domain, Name: name, Known: AllNames()}
}

// Resolve returns the benchmark named by a workload spec string:
// fixed benchmarks by name, generated workloads by canonical spec.
// The returned Benchmark's Name is the canonical spec string.
func Resolve(spec string) (Benchmark, error) {
	spec = strings.TrimSpace(spec)
	if b, err := Get(spec); err == nil {
		return b, nil
	}
	if !wgen.IsGenerated(spec) {
		name, _, _ := strings.Cut(spec, "?")
		return Benchmark{}, unknown(strings.TrimSpace(name))
	}
	sp, err := wgen.Parse(spec)
	if err != nil {
		return Benchmark{}, err
	}
	w, err := wgen.Build(sp)
	if err != nil {
		return Benchmark{}, err
	}
	return Benchmark{
		Name:     w.Spec.String(),
		Suite:    "Generated",
		Paper:    "generated: " + resolvedHelp(w.Spec),
		SegBytes: w.SegBytes,
		Build:    w.Build,
		shared:   !wgen.ReadsFile(w.Spec),
	}, nil
}

// resolvedHelp renders the fully-resolved spec for the benchmark's
// description line (best effort; the canonical spec on error).
func resolvedHelp(sp wgen.Spec) string {
	if r, err := wgen.Resolved(sp); err == nil {
		return r
	}
	return sp.String()
}

// Canonical validates one workload spec string and returns its
// canonical form: fixed benchmark names unchanged, generated specs
// canonicalized (sorted params, defaults elided). Sweep syntax is an
// error here; use ExpandSpecs where fan-out is meant.
func Canonical(spec string) (string, error) {
	spec = strings.TrimSpace(spec)
	if _, err := Get(spec); err == nil {
		return spec, nil
	}
	if !wgen.IsGenerated(spec) {
		name, _, _ := strings.Cut(spec, "?")
		return "", unknown(strings.TrimSpace(name))
	}
	sp, err := wgen.Parse(spec)
	if err != nil {
		return "", err
	}
	return sp.String(), nil
}

// ExpandSpecs validates a list of workload spec strings, fanning out
// '|' sweeps in generated specs, and returns canonical strings with
// duplicates removed (first occurrence wins, order preserved).
func ExpandSpecs(specs []string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, raw := range specs {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		if _, err := Get(raw); err == nil {
			add(raw)
			continue
		}
		if !wgen.IsGenerated(raw) {
			name, _, _ := strings.Cut(raw, "?")
			return nil, unknown(strings.TrimSpace(name))
		}
		sps, err := wgen.Expand(raw)
		if err != nil {
			return nil, err
		}
		for _, sp := range sps {
			add(sp.String())
		}
	}
	return out, nil
}

// SplitList splits a comma-separated workload list into individual
// spec strings, with generated-spec parameters ("gen?stride=64,seg=256k")
// attaching to their item.
func SplitList(raw string) ([]string, error) { return wgen.SplitList(raw) }

// Catalogue returns the full workload metadata: fixed benchmarks as
// parameterless entries, then the generator registry — the daemon's
// /v1/workloads document.
func Catalogue() []pspec.Metadata {
	var out []pspec.Metadata
	for _, b := range registry {
		out = append(out, pspec.Metadata{Name: b.Name, Help: b.Suite + ": " + b.Paper, Params: []pspec.Param{}})
	}
	for _, b := range Micro() {
		out = append(out, pspec.Metadata{Name: b.Name, Help: b.Suite + ": " + b.Paper, Params: []pspec.Param{}})
	}
	return append(out, wgen.All()...)
}

// Describe renders the resolvable workloads for -list-workloads: the
// fixed benchmarks one line each, then the generator registry with
// parameter metadata (same layout as the scheme registry's Describe).
func Describe() string {
	var sb strings.Builder
	for _, m := range Catalogue() {
		fmt.Fprintf(&sb, "%-26s %s\n", m.Name, m.Help)
		for _, p := range m.Params {
			fmt.Fprintf(&sb, "    %-12s %-6s default %-8s %s\n", p.Name, p.Kind, p.Default, p.Help)
		}
	}
	return sb.String()
}

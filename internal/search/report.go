package search

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"faulthound/internal/buildinfo"
	"faulthound/internal/campaign"
	"faulthound/internal/contract"
)

// Artifact file names inside a run directory.
const (
	CSVName    = "pareto.csv"
	JSONName   = "pareto.json"
	ReportName = "pareto.md"
)

// Report is the pareto.json artifact: provenance, the search
// configuration that produced the frontier, and the full archive.
// It carries no timestamps — reruns with the same inputs must be
// byte-identical.
type Report struct {
	SchemaVersion string   `json:"schema_version"`
	RunID         string   `json:"run_id"`
	Generator     string   `json:"generator"`
	Seed          uint64   `json:"seed"`
	Budget        int      `json:"budget"`
	Evaluated     int      `json:"evaluated"`
	Rounds        int      `json:"rounds"`
	Benchmarks    []string `json:"benchmarks"`
	Weights       Weights  `json:"weights"`
	Points        []Point  `json:"points"`
}

// NewReport assembles the artifact document for a finished search.
func NewReport(runID string, benchmarks []string, cfg Config, res *Result) *Report {
	return &Report{
		SchemaVersion: contract.ParetoV1,
		RunID:         runID,
		Generator:     buildinfo.Generator(),
		Seed:          cfg.Seed,
		Budget:        cfg.Budget,
		Evaluated:     res.Evaluated,
		Rounds:        res.Rounds,
		Benchmarks:    benchmarks,
		Weights:       cfg.Weights,
		Points:        res.Points,
	}
}

// Front returns the report's Pareto-front points (the leading run).
func (r *Report) Front() []Point {
	n := 0
	for n < len(r.Points) && r.Points[n].Front {
		n++
	}
	return r.Points[:n]
}

// ftoa is the canonical float encoding shared with the spec syntax.
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// CSV renders the pareto.csv artifact: one row per evaluated point in
// archive order (front first), with the shared canonical float
// encoding so the bytes are reproducible. Fields are RFC 4180-quoted
// by encoding/csv — a parameterized spec contains commas.
func (r *Report) CSV() []byte {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(contract.ParetoColumns())
	for _, p := range r.Points {
		w.Write([]string{
			p.Spec,
			strconv.FormatBool(p.Front),
			strconv.Itoa(p.Round),
			ftoa(p.Coverage),
			ftoa(p.FPRate),
			ftoa(p.EnergyOverhead),
			ftoa(p.PerfOverhead),
			ftoa(p.Fitness),
		})
	}
	w.Flush()
	return []byte(b.String())
}

// JSON renders the stable pareto.json encoding: indented, sorted by
// struct order, trailing newline.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Markdown renders the human-readable pareto.md sidecar.
func (r *Report) Markdown() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# Pareto search %s\n\n", r.RunID)
	fmt.Fprintf(&b, "- generator: %s\n", r.Generator)
	fmt.Fprintf(&b, "- benchmarks: %s\n", strings.Join(r.Benchmarks, ", "))
	fmt.Fprintf(&b, "- seed: %d, budget: %d, evaluated: %d, rounds: %d\n", r.Seed, r.Budget, r.Evaluated, r.Rounds)
	fmt.Fprintf(&b, "- weights: %s\n\n", r.Weights.String())
	front := r.Front()
	fmt.Fprintf(&b, "## Front (%d non-dominated)\n\n", len(front))
	b.WriteString("| spec | coverage | fp_rate | energy_ovh | perf_ovh | fitness |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, p := range front {
		fmt.Fprintf(&b, "| `%s` | %.4f | %.6f | %.4f | %.4f | %.4f |\n",
			p.Spec, p.Coverage, p.FPRate, p.EnergyOverhead, p.PerfOverhead, p.Fitness)
	}
	if n := len(r.Points) - len(front); n > 0 {
		fmt.Fprintf(&b, "\n%d dominated configuration(s) omitted — see pareto.csv.\n", n)
	}
	return []byte(b.String())
}

// WriteArtifacts writes pareto.csv, pareto.json, and pareto.md under
// dir, creating it if needed.
func (r *Report) WriteArtifacts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jb, err := r.JSON()
	if err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		data []byte
	}{
		{CSVName, r.CSV()},
		{JSONName, jb},
		{ReportName, r.Markdown()},
	} {
		if err := campaign.WriteFile(filepath.Join(dir, f.name), f.data); err != nil {
			return err
		}
	}
	return nil
}

// ReadReport loads a pareto.json document.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("search: bad pareto report %s: %w", path, err)
	}
	return &r, nil
}

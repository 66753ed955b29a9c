package campaign

import (
	"encoding/csv"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"faulthound/internal/contract"
	"faulthound/internal/fault"
)

// Artifact file names of a bundle besides the manifest and journal.
const (
	ResultsName = "results.csv"
	SummaryName = "summary.json"
	ReportName  = "report.md"
)

// writeBundle writes the post-run artifacts (results.csv, summary.json,
// report.md) of a finished campaign into dir. All three are pure
// functions of the outcome, so an interrupted-then-resumed campaign
// reproduces them byte for byte.
func writeBundle(dir string, out *Outcome) error {
	if err := WriteFile(filepath.Join(dir, ResultsName), []byte(ResultsCSV(out))); err != nil {
		return err
	}
	if err := WriteJSONFile(filepath.Join(dir, SummaryName), out.Summary); err != nil {
		return err
	}
	man, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	return WriteFile(filepath.Join(dir, ReportName), []byte(Report(out, man)))
}

// ResultsCSV renders the per-injection results: one row per (cell,
// injection), cell-major in execution order, injections in descriptor
// order. The bin column is the Figure-11 classification of scheme-cell
// results paired against the benchmark's baseline cell; it is empty for
// baseline rows and for injections outside the SDC base.
func ResultsCSV(out *Outcome) string {
	var sb strings.Builder
	baseline := make(map[string]*fault.Campaign)
	for i, c := range out.Cells {
		if c.Scheme == BaselineSpec {
			baseline[c.Bench] = out.Campaigns[i]
		}
	}
	w := csv.NewWriter(&sb)
	w.Write(contract.ResultsColumns())
	var rec []string
	for ci, c := range out.Cells {
		base := baseline[c.Bench]
		for i, r := range out.Campaigns[ci].Results {
			bin := ""
			if c.Scheme != BaselineSpec && base != nil && i < len(base.Results) {
				if b, counted := fault.ClassifyPair(base.Results[i], r); counted {
					bin = b.String()
				}
			}
			// encoding/csv quotes only fields that need it: parameterized
			// specs ("faulthound?tcam=16,delay=6") contain commas.
			rec = rec[:0]
			for _, v := range []any{c.Bench, c.Scheme, i,
				r.Injection.Structure, r.Injection.Bit, r.Injection.CycleOffset, r.Injection.InFlight,
				r.Outcome, r.Hung, r.Detected,
				r.Triggers, r.Suppressed, r.Replays, r.Rollbacks, r.Singletons, bin} {
				rec = append(rec, fmt.Sprint(v))
			}
			w.Write(rec)
		}
	}
	w.Flush()
	return sb.String()
}

// Report renders the human-readable report.md in the exemplar bundle
// style: provenance header, classification and coverage tables, and
// the bundle file list.
func Report(out *Outcome, man *Manifest) string {
	var sb strings.Builder
	sum := out.Summary
	sb.WriteString("# Fault-Injection Campaign Report\n\n")
	fmt.Fprintf(&sb, "- Run ID: `%s`\n", man.Provenance.RunID)
	fmt.Fprintf(&sb, "- Created: `%s`\n", man.Provenance.CreatedAt)
	fmt.Fprintf(&sb, "- Go: `%s`\n", man.Provenance.GoVersion)
	fmt.Fprintf(&sb, "- Commit: `%s`\n", man.Provenance.GitCommit)
	fmt.Fprintf(&sb, "- Seed: `%#x`\n", out.Spec.Fault.Seed)
	fmt.Fprintf(&sb, "- Workers: `%d`\n", out.Spec.WorkerCount())
	fmt.Fprintf(&sb, "- Wall clock: `%s`\n", out.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&sb, "- Injections per cell: `%d`\n", sum.Injections)
	fmt.Fprintf(&sb, "- Cells: `%d` (%d benchmarks x %d schemes incl. baseline)\n",
		len(out.Cells), len(out.Spec.Benchmarks), len(out.Cells)/max(len(out.Spec.Benchmarks), 1))
	fmt.Fprintf(&sb, "- Resumed results: `%d` of `%d`\n", out.Resumed, len(out.Cells)*sum.Injections)

	sb.WriteString("\n## Classification\n\n")
	sb.WriteString("| benchmark | scheme | masked | noisy | sdc | detected | fp-rate |\n")
	sb.WriteString("|---|---|---|---|---|---|---|\n")
	for _, c := range sum.Cells {
		fmt.Fprintf(&sb, "| %s | %s | %d | %d | %d | %d | %.5f |\n",
			c.Bench, c.Scheme, c.Masked, c.Noisy, c.SDC, c.Detected, c.FPRate)
	}

	if hasCoverage(sum) {
		sb.WriteString("\n## Coverage (vs baseline, over would-be-SDC faults)\n\n")
		sb.WriteString("| benchmark | scheme | sdc-base | covered | coverage | bins |\n")
		sb.WriteString("|---|---|---|---|---|---|\n")
		for _, c := range sum.Cells {
			if c.Coverage == nil {
				continue
			}
			fmt.Fprintf(&sb, "| %s | %s | %d | %d | %.2f%% | %s |\n",
				c.Bench, c.Scheme, c.Coverage.SDCBase, c.Coverage.Covered,
				c.Coverage.Coverage*100, binList(c.Coverage.Bins))
		}
	}

	sb.WriteString("\n## Bundle\n\n")
	for _, f := range []string{ManifestName, JournalName, ResultsName, SummaryName, ReportName} {
		fmt.Fprintf(&sb, "- `%s`\n", f)
	}
	return sb.String()
}

// hasCoverage reports whether any cell carries coverage data.
func hasCoverage(s *Summary) bool {
	for _, c := range s.Cells {
		if c.Coverage != nil {
			return true
		}
	}
	return false
}

// binList renders non-zero bins as "name=n" in fault.BinNames order
// (map iteration order would not be deterministic).
func binList(bins map[string]int) string {
	var parts []string
	for _, b := range fault.BinNames() {
		if n := bins[b.String()]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", b, n))
		}
	}
	// Any unknown keys (forward compatibility) go last, sorted.
	known := map[string]bool{}
	for _, b := range fault.BinNames() {
		known[b.String()] = true
	}
	var extra []string
	for k, n := range bins {
		if !known[k] && n > 0 {
			extra = append(extra, fmt.Sprintf("%s=%d", k, n))
		}
	}
	sort.Strings(extra)
	parts = append(parts, extra...)
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// Package contract is the versioned artifact-surface layer: JSON-schema
// contracts (v1) for every machine-readable artifact the campaign stack
// emits — a bundle's summary.json and manifest.json, its results.csv
// column layout, the derived report/quality.json, and the golden
// spec-hash maps — plus a validator API and the ValidateBundle entry
// point the fhreport CLI and the CI release gates run. The contracts
// exist so the layers above (distributed fabric, parameter-space
// search) can evolve without silently corrupting the artifact surface;
// see docs/CONTRACTS.md for the compatibility policy.
package contract

import (
	"embed"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"faulthound/internal/fault"
)

//go:embed schemas/*.schema.json
var schemaFS embed.FS

// Kind names an artifact contract.
type Kind string

// The v1 artifact kinds.
const (
	KindSummary  Kind = "summary"
	KindManifest Kind = "manifest"
	KindQuality  Kind = "quality"
	KindHashes   Kind = "hashes"
	KindPareto   Kind = "pareto"
)

// Schema versions — the $id of each kind's current contract.
const (
	SummaryV1  = "faulthound.summary/v1"
	ManifestV1 = "faulthound.manifest/v1"
	QualityV1  = "faulthound.quality/v1"
	HashesV1   = "faulthound.hashes/v1"
	ParetoV1   = "faulthound.pareto/v1"
)

// ReportDirName is the derived-report subdirectory of a bundle; the
// report files inside it are sidecars — generating them never mutates
// the bundle's own artifacts.
const (
	ReportDirName   = "report"
	QualityJSONName = "quality.json"
	QualityMDName   = "quality.md"
)

var schemas = func() map[Kind]*Schema {
	out := make(map[Kind]*Schema)
	for kind, file := range map[Kind]string{
		KindSummary:  "summary.v1.schema.json",
		KindManifest: "manifest.v1.schema.json",
		KindQuality:  "quality.v1.schema.json",
		KindHashes:   "hashes.v1.schema.json",
		KindPareto:   "pareto.v1.schema.json",
	} {
		b, err := schemaFS.ReadFile("schemas/" + file)
		if err != nil {
			panic(fmt.Sprintf("contract: embedded schema %s: %v", file, err))
		}
		var s Schema
		if err := json.Unmarshal(b, &s); err != nil {
			panic(fmt.Sprintf("contract: embedded schema %s: %v", file, err))
		}
		if err := s.compile(); err != nil {
			panic(err.Error())
		}
		out[kind] = &s
	}
	return out
}()

// ValidateJSON checks raw JSON bytes against a kind's contract.
func ValidateJSON(kind Kind, data []byte) error {
	s := schemas[kind]
	if s == nil {
		return fmt.Errorf("contract: unknown artifact kind %q", kind)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("contract: %s: unparsable JSON: %w", kind, err)
	}
	if vs := s.Validate(doc); len(vs) > 0 {
		msgs := make([]string, len(vs))
		for i, v := range vs {
			msgs[i] = v.String()
		}
		return fmt.Errorf("contract: %s violates %s:\n  %s", kind, s.ID, strings.Join(msgs, "\n  "))
	}
	return nil
}

// ValidateJSONFile reads path and checks it against a kind's contract.
func ValidateJSONFile(kind Kind, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := ValidateJSON(kind, b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// SniffKind maps an artifact file name to its contract kind: the bundle
// artifacts by their fixed names, quality.json, pareto.json, and the
// *_golden.json spec-hash maps. Unknown names return "" —
// journal.jsonl and report.md deliberately have no JSON contract.
func SniffKind(name string) Kind {
	switch base := filepath.Base(name); {
	case base == "summary.json":
		return KindSummary
	case base == "manifest.json":
		return KindManifest
	case base == QualityJSONName:
		return KindQuality
	case base == "pareto.json":
		return KindPareto
	case strings.HasSuffix(base, "_golden.json"):
		return KindHashes
	}
	return ""
}

// resultsColumns is the results.csv column contract: ordered names and
// cell validators. The CSV layout is append-only — v1 readers key on
// the header, so new columns may only be added at the end (and a new
// column bumps the contract to v2 if existing columns move).
var resultsColumns = []struct {
	name  string
	check func(s string) error
}{
	{"bench", nonEmpty},
	{"scheme", nonEmpty},
	{"index", integer},
	{"structure", enum("regfile", "rename", "lsq")},
	{"bit", integer},
	{"cycle_offset", integer},
	{"in_flight", boolean},
	{"outcome", enum("masked", "noisy", "sdc")},
	{"hung", boolean},
	{"detected", boolean},
	{"triggers", integer},
	{"suppressed", integer},
	{"replays", integer},
	{"rollbacks", integer},
	{"singletons", integer},
	{"bin", binName},
}

func nonEmpty(s string) error {
	if s == "" {
		return errors.New("must be non-empty")
	}
	return nil
}

func integer(s string) error {
	if _, err := strconv.ParseUint(s, 10, 64); err != nil {
		return fmt.Errorf("%q is not a non-negative integer", s)
	}
	return nil
}

func boolean(s string) error {
	if s != "true" && s != "false" {
		return fmt.Errorf("%q is not a boolean", s)
	}
	return nil
}

func enum(vals ...string) func(string) error {
	return func(s string) error {
		for _, v := range vals {
			if s == v {
				return nil
			}
		}
		return fmt.Errorf("%q not in {%s}", s, strings.Join(vals, ", "))
	}
}

// binName admits the empty string (baseline rows, non-SDC-base rows)
// or any Figure-11 bin name.
func binName(s string) error {
	if s == "" {
		return nil
	}
	for _, b := range fault.BinNames() {
		if s == b.String() {
			return nil
		}
	}
	return fmt.Errorf("%q is not a known classification bin", s)
}

// numberCell admits any finite decimal value, signed included —
// overheads and fitness can legitimately be negative.
func numberCell(s string) error {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("%q is not a number", s)
	}
	if f != f || f > 1.7e308 || f < -1.7e308 {
		return fmt.Errorf("%q is not finite", s)
	}
	return nil
}

// unitInterval admits a number in [0, 1] (coverage fractions).
func unitInterval(s string) error {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f < 0 || f > 1 {
		return fmt.Errorf("%q is not a fraction in [0, 1]", s)
	}
	return nil
}

// paretoColumns is the pareto.csv column contract (docs/OPTIMIZE.md):
// one row per evaluated configuration, front members first.
var paretoColumns = []struct {
	name  string
	check func(s string) error
}{
	{"spec", nonEmpty},
	{"front", boolean},
	{"round", integer},
	{"coverage", unitInterval},
	{"fp_rate", numberCell},
	{"energy_overhead", numberCell},
	{"perf_overhead", numberCell},
	{"fitness", numberCell},
}

// ParetoColumns returns the v1 pareto.csv header, in order.
func ParetoColumns() []string {
	out := make([]string, len(paretoColumns))
	for i, c := range paretoColumns {
		out[i] = c.name
	}
	return out
}

// ValidateParetoCSV checks a pareto.csv stream against the column
// contract: exact header, typed cells, and the front-first row
// ordering the artifact promises. It returns the row count (header
// excluded).
func ValidateParetoCSV(r io.Reader) (rows int, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(paretoColumns)
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("contract: pareto.csv: reading header: %w", err)
	}
	for i, c := range paretoColumns {
		if header[i] != c.name {
			return 0, fmt.Errorf("contract: pareto.csv: column %d is %q, contract wants %q", i, header[i], c.name)
		}
	}
	sawDominated := false
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, fmt.Errorf("contract: pareto.csv: %w", err)
		}
		rows++
		for i, c := range paretoColumns {
			if err := c.check(rec[i]); err != nil {
				return rows, fmt.Errorf("contract: pareto.csv row %d, column %s: %w", rows, c.name, err)
			}
		}
		if rec[1] == "false" {
			sawDominated = true
		} else if sawDominated {
			return rows, fmt.Errorf("contract: pareto.csv row %d: front row after a dominated row (rows must be front-first)", rows)
		}
	}
}

// ResultsColumns returns the v1 results.csv header, in order.
func ResultsColumns() []string {
	out := make([]string, len(resultsColumns))
	for i, c := range resultsColumns {
		out[i] = c.name
	}
	return out
}

// ValidateResultsCSV checks a results.csv stream against the column
// contract: exact header, and every row's cells typed. It returns the
// row count (header excluded) for cross-checks.
func ValidateResultsCSV(r io.Reader) (rows int, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(resultsColumns)
	header, err := cr.Read()
	if err != nil {
		return 0, fmt.Errorf("contract: results.csv: reading header: %w", err)
	}
	for i, c := range resultsColumns {
		if header[i] != c.name {
			return 0, fmt.Errorf("contract: results.csv: column %d is %q, contract wants %q", i, header[i], c.name)
		}
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, fmt.Errorf("contract: results.csv: %w", err)
		}
		rows++
		for i, c := range resultsColumns {
			if err := c.check(rec[i]); err != nil {
				return rows, fmt.Errorf("contract: results.csv row %d, column %s: %w", rows, c.name, err)
			}
		}
	}
}

// ValidateBundle validates a campaign bundle directory against the v1
// contracts: manifest.json, summary.json, and results.csv must exist
// and conform; report/quality.json is validated when present (it is an
// optional derived sidecar). Beyond per-file shape it cross-checks the
// artifacts against each other — run IDs agree, the row count equals
// cells x injections — so a bundle assembled from mismatched runs
// fails even though each file is individually well-formed. Every
// violation is reported, joined into one error.
func ValidateBundle(dir string) error {
	var errs []error

	manifest := struct {
		Provenance struct {
			RunID string `json:"run_id"`
		} `json:"provenance"`
		Spec struct {
			RunID      string   `json:"run_id"`
			Benchmarks []string `json:"benchmarks"`
			Schemes    []string `json:"schemes"`
			Fault      struct {
				Injections int
			} `json:"fault"`
		} `json:"spec"`
	}{}
	manB, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err == nil {
		err = ValidateJSONFile(KindManifest, filepath.Join(dir, "manifest.json"))
	}
	if err != nil {
		errs = append(errs, err)
	} else if err := json.Unmarshal(manB, &manifest); err != nil {
		// Decode for cross-checks only after the contract holds.
		errs = append(errs, err)
	}

	summary := struct {
		RunID      string `json:"run_id"`
		Injections int    `json:"injections_per_cell"`
		Cells      []any  `json:"cells"`
	}{}
	sumB, err := os.ReadFile(filepath.Join(dir, "summary.json"))
	if err == nil {
		err = ValidateJSONFile(KindSummary, filepath.Join(dir, "summary.json"))
	}
	if err != nil {
		errs = append(errs, err)
	} else if err := json.Unmarshal(sumB, &summary); err != nil {
		errs = append(errs, err)
	}

	rows := -1
	if f, err := os.Open(filepath.Join(dir, "results.csv")); err != nil {
		errs = append(errs, err)
	} else {
		rows, err = ValidateResultsCSV(f)
		f.Close()
		if err != nil {
			errs = append(errs, err)
		}
	}

	// Cross-checks, only over artifacts that individually validated.
	if manifest.Spec.RunID != "" && summary.RunID != "" {
		if manifest.Provenance.RunID != summary.RunID {
			errs = append(errs, fmt.Errorf("contract: run_id mismatch: manifest %q vs summary %q",
				manifest.Provenance.RunID, summary.RunID))
		}
		if manifest.Spec.Fault.Injections != summary.Injections {
			errs = append(errs, fmt.Errorf("contract: injections_per_cell mismatch: manifest %d vs summary %d",
				manifest.Spec.Fault.Injections, summary.Injections))
		}
		if want := len(summary.Cells) * summary.Injections; rows >= 0 && rows != want {
			errs = append(errs, fmt.Errorf("contract: results.csv has %d rows, summary implies %d (%d cells x %d injections)",
				rows, want, len(summary.Cells), summary.Injections))
		}
	}

	// The derived report is optional; when present it must conform and
	// agree with the summary.
	qPath := filepath.Join(dir, ReportDirName, QualityJSONName)
	if qB, err := os.ReadFile(qPath); err == nil {
		if verr := ValidateJSON(KindQuality, qB); verr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", qPath, verr))
		} else {
			q := struct {
				RunID string `json:"run_id"`
			}{}
			if json.Unmarshal(qB, &q) == nil && summary.RunID != "" && q.RunID != summary.RunID {
				errs = append(errs, fmt.Errorf("contract: run_id mismatch: quality report %q vs summary %q", q.RunID, summary.RunID))
			}
		}
	}

	// Pareto-search sidecars (pareto.json + pareto.csv) are optional:
	// when an optimize run left them beside the bundle they must
	// conform and agree with each other.
	if _, err := os.Stat(filepath.Join(dir, "pareto.json")); err == nil {
		if err := ValidateParetoDir(dir); err != nil {
			errs = append(errs, err)
		}
	}

	return errors.Join(errs...)
}

// ValidateParetoDir validates a Pareto-search artifact directory:
// pareto.json must conform to its contract, pareto.csv to the column
// contract, and the two must agree — the CSV carries exactly one row
// per archive point and the same number of front members. fhreport
// validate routes directories holding a pareto.json without a
// manifest.json here.
func ValidateParetoDir(dir string) error {
	var errs []error

	report := struct {
		Evaluated int `json:"evaluated"`
		Points    []struct {
			Front bool `json:"front"`
		} `json:"points"`
	}{}
	jPath := filepath.Join(dir, "pareto.json")
	jB, err := os.ReadFile(jPath)
	if err == nil {
		err = ValidateJSON(KindPareto, jB)
		if err != nil {
			err = fmt.Errorf("%s: %w", jPath, err)
		}
	}
	if err != nil {
		errs = append(errs, err)
	} else if err := json.Unmarshal(jB, &report); err != nil {
		errs = append(errs, err)
	}

	rows := -1
	if f, err := os.Open(filepath.Join(dir, "pareto.csv")); err != nil {
		errs = append(errs, err)
	} else {
		rows, err = ValidateParetoCSV(f)
		f.Close()
		if err != nil {
			errs = append(errs, err)
		}
	}

	if len(report.Points) > 0 {
		if report.Evaluated != len(report.Points) {
			errs = append(errs, fmt.Errorf("contract: pareto.json: evaluated %d but %d points", report.Evaluated, len(report.Points)))
		}
		if rows >= 0 && rows != len(report.Points) {
			errs = append(errs, fmt.Errorf("contract: pareto.csv has %d rows, pareto.json has %d points", rows, len(report.Points)))
		}
		front := 0
		for _, p := range report.Points {
			if p.Front {
				front++
			}
		}
		if front == 0 {
			errs = append(errs, fmt.Errorf("contract: pareto.json: no front members"))
		}
	}

	return errors.Join(errs...)
}

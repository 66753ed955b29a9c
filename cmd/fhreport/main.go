// Command fhreport is the artifact-contract and detector-quality tool:
// it validates campaign bundles against the versioned v1 contracts
// (internal/contract, docs/CONTRACTS.md), derives detector-quality
// reports (coverage, FP rate, detection-latency percentiles, confusion
// matrices vs the baseline golden classification), and diffs two
// reports under a tolerance. The CI release gates are built from these
// subcommands.
//
// Usage:
//
//	fhreport bundle [-out dir] <bundle-dir>
//	fhreport diff [-tolerance 0] <bundle-or-quality.json> <bundle-or-quality.json>
//	fhreport validate <bundle-dir | artifact.json>...
//
// bundle writes the derived report/quality.{json,md} sidecar next to
// the bundle's artifacts (never mutating them); -out redirects the two
// files elsewhere. diff exits non-zero when any metric differs by more
// than the relative tolerance (0 = byte-exact metrics). validate exits
// non-zero on any contract violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"faulthound/internal/buildinfo"
	"faulthound/internal/campaign"
	"faulthound/internal/contract"
	"faulthound/internal/report"
)

func main() {
	flag.Usage = usage
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Generator())
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "bundle":
		err = cmdBundle(rest)
	case "diff":
		err = cmdDiff(rest)
	case "validate":
		err = cmdValidate(rest)
	default:
		fmt.Fprintf(os.Stderr, "fhreport: unknown subcommand %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fhreport:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  fhreport bundle [-out dir] <bundle-dir>
  fhreport diff [-tolerance 0] <bundle-or-quality.json> <bundle-or-quality.json>
  fhreport validate <bundle-dir | artifact.json>...
  fhreport -version
`)
}

// cmdBundle derives a bundle's quality report sidecar.
func cmdBundle(args []string) error {
	fs := flag.NewFlagSet("bundle", flag.ExitOnError)
	out := fs.String("out", "", "write quality.{json,md} into this directory instead of <bundle>/report/")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("bundle wants exactly one bundle directory")
	}
	dir := fs.Arg(0)

	q, err := report.Generate(dir, report.Options{})
	if err != nil {
		return err
	}
	var jsonPath, mdPath string
	if *out != "" {
		jsonPath, mdPath, err = report.WriteDir(*out, q)
	} else {
		jsonPath, mdPath, err = report.WriteFiles(dir, q)
	}
	if err != nil {
		return err
	}
	fmt.Println(jsonPath)
	fmt.Println(mdPath)
	return nil
}

// loadQuality resolves a diff operand: a quality.json file, or a
// bundle directory — whose committed report/quality.json is used when
// present, and which is otherwise generated in memory.
func loadQuality(path string) (*report.Quality, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		sidecar := filepath.Join(path, contract.ReportDirName, contract.QualityJSONName)
		if _, err := os.Stat(sidecar); err == nil {
			return readQuality(sidecar)
		}
		return report.Generate(path, report.Options{})
	}
	return readQuality(path)
}

func readQuality(path string) (*report.Quality, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := contract.ValidateJSON(contract.KindQuality, b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var q report.Quality
	if err := json.Unmarshal(b, &q); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &q, nil
}

// cmdDiff compares two quality reports metric by metric.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	tol := fs.Float64("tolerance", 0, "relative tolerance per metric (0 = exact)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff wants exactly two bundles or quality.json files")
	}
	a, err := loadQuality(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadQuality(fs.Arg(1))
	if err != nil {
		return err
	}
	deltas := report.Diff(a, b)
	failing := report.Exceeds(deltas, *tol)
	for _, d := range deltas {
		fmt.Println(d)
	}
	if len(failing) > 0 {
		return fmt.Errorf("%d of %d deltas exceed tolerance %g", len(failing), len(deltas), *tol)
	}
	fmt.Printf("quality reports agree (%d deltas within tolerance %g)\n", len(deltas), *tol)
	return nil
}

// cmdValidate checks bundle directories and standalone artifacts
// against their contracts.
func cmdValidate(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("validate wants at least one bundle directory or artifact file")
	}
	failed := false
	for _, path := range args {
		if err := validateOne(path); err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "FAIL %s\n%v\n", path, err)
			continue
		}
		fmt.Printf("ok   %s\n", path)
	}
	if failed {
		return fmt.Errorf("contract violations found")
	}
	return nil
}

func validateOne(path string) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if st.IsDir() {
		// A directory holding pareto.json but no campaign manifest is a
		// standalone Pareto-search result (fhcampaign -optimize output,
		// or a daemon optimize job's directory), not a bundle.
		if _, err := os.Stat(filepath.Join(path, "pareto.json")); err == nil {
			if _, err := os.Stat(filepath.Join(path, campaign.ManifestName)); err != nil {
				return contract.ValidateParetoDir(path)
			}
		}
		return contract.ValidateBundle(path)
	}
	switch filepath.Base(path) {
	case "results.csv":
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = contract.ValidateResultsCSV(f)
		return err
	case "pareto.csv":
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = contract.ValidateParetoCSV(f)
		return err
	}
	kind := contract.SniffKind(path)
	if kind == "" {
		return fmt.Errorf("no contract covers %q", filepath.Base(path))
	}
	return contract.ValidateJSONFile(kind, path)
}

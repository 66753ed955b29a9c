// Command faulthound regenerates the paper's tables and figures.
//
// Usage:
//
//	faulthound -experiment all
//	faulthound -experiment fig8a -benchmarks bzip2,mcf -quick
//	faulthound -experiment fig9 -csv out/
//
// Experiments: table1, table2, fig6, fig7, fig8a, fig8b, fig9, fig10,
// fig11, fig12, all — plus the extension experiments ext-filters,
// ext-depth, ext-srt (or extensions for all three) and mp-scaling (the
// 8-core machine running shared-memory parallel Ocean).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"faulthound/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run (table1, table2, fig6..fig12, all)")
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all of Table 1)")
		quick      = flag.Bool("quick", false, "scaled-down run for smoke testing")
		csvDir     = flag.String("csv", "", "directory to also write per-table CSV files into")
		jsonDir    = flag.String("json", "", "directory to also write per-table JSON files into")
		injections = flag.Int("injections", 0, "override fault injections per campaign")
		commits    = flag.Uint64("commits", 0, "override per-thread commit budget of timing runs")
		seed       = flag.Uint64("seed", 0, "override experiment seed")
		verbose    = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	opts := harness.DefaultOptions()
	if *quick {
		opts = harness.QuickOptions()
	}
	if *benchmarks != "" {
		opts.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if *injections > 0 {
		opts.Fault.Injections = *injections
	}
	if *commits > 0 {
		opts.MeasureCommits = *commits
	}
	if *seed != 0 {
		opts.Seed = *seed
		opts.Fault.Seed = *seed
	}
	opts.Verbose = *verbose

	tables, err := run(*experiment, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faulthound:", err)
		os.Exit(1)
	}
	for _, t := range tables {
		fmt.Println(t.Render())
		if err := dump(*csvDir, t.ID+".csv", t.CSV()); err != nil {
			fmt.Fprintln(os.Stderr, "faulthound:", err)
			os.Exit(1)
		}
		if err := dump(*jsonDir, t.ID+".json", t.JSON()); err != nil {
			fmt.Fprintln(os.Stderr, "faulthound:", err)
			os.Exit(1)
		}
	}
}

// dump writes content into dir/name, creating dir; it is a no-op for an
// empty dir.
func dump(dir, name, content string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}

func run(experiment string, opts harness.Options) ([]*harness.Table, error) {
	one := func(t *harness.Table, err error) ([]*harness.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*harness.Table{t}, nil
	}
	switch experiment {
	case "all":
		return harness.All(opts)
	case "table1":
		return []*harness.Table{harness.Table1()}, nil
	case "table2":
		return []*harness.Table{harness.Table2()}, nil
	case "fig6":
		return one(harness.Fig6(opts))
	case "fig7":
		return one(harness.Fig7(opts))
	case "fig8a":
		return one(harness.Fig8a(opts))
	case "fig8b":
		return one(harness.Fig8b(opts))
	case "fig9":
		return one(harness.Fig9(opts))
	case "fig10":
		return one(harness.Fig10(opts))
	case "fig11":
		return one(harness.Fig11(opts))
	case "fig12":
		return harness.Fig12(opts)
	case "ext-filters":
		return one(harness.ExtFilterSize(opts))
	case "ext-depth":
		return one(harness.ExtStateDepth(opts))
	case "ext-srt":
		return one(harness.ExtFullSRT(opts))
	case "extensions":
		return harness.Extensions(opts)
	case "mp-scaling":
		return one(harness.MPScaling(opts))
	case "workloads":
		return one(harness.Characterize(opts))
	case "mp-coverage":
		return one(harness.MPCoverage(opts))
	default:
		return nil, fmt.Errorf("unknown experiment %q", experiment)
	}
}

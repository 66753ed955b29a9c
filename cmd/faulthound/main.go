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
// ext-depth, ext-srt (or extensions for all three); mp-scaling and
// mp-coverage (shared-memory parallel Ocean on up to 8 cores: its
// throughput, and its coverage with faults on every core); and
// workloads (each kernel's execution profile on the baseline core).
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
		experiment = flag.String("experiment", "all", "which experiment to run: "+experimentNames())
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

// experiments maps each -experiment name to what it runs, in the
// order the help lists them.
var experiments = []struct {
	name string
	run  func(harness.Options) ([]*harness.Table, error)
}{
	{"all", harness.All},
	{"table1", static(harness.Table1)},
	{"table2", static(harness.Table2)},
	{"fig6", one(harness.Fig6)},
	{"fig7", one(harness.Fig7)},
	{"fig8a", one(harness.Fig8a)},
	{"fig8b", one(harness.Fig8b)},
	{"fig9", one(harness.Fig9)},
	{"fig10", one(harness.Fig10)},
	{"fig11", one(harness.Fig11)},
	{"fig12", harness.Fig12},
	{"ext-filters", one(harness.ExtFilterSize)},
	{"ext-depth", one(harness.ExtStateDepth)},
	{"ext-srt", one(harness.ExtFullSRT)},
	{"extensions", harness.Extensions},
	{"mp-scaling", one(harness.MPScaling)},
	{"mp-coverage", one(harness.MPCoverage)},
	{"workloads", one(harness.Characterize)},
}

// experimentNames lists the -experiment values.
func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

func run(experiment string, opts harness.Options) ([]*harness.Table, error) {
	for _, e := range experiments {
		if e.name == experiment {
			return e.run(opts)
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want one of %s)", experiment, experimentNames())
}

// one adapts an experiment of one table.
func one(f func(harness.Options) (*harness.Table, error)) func(harness.Options) ([]*harness.Table, error) {
	return func(o harness.Options) ([]*harness.Table, error) {
		t, err := f(o)
		if err != nil {
			return nil, err
		}
		return []*harness.Table{t}, nil
	}
}

// static adapts a table that needs no simulation.
func static(f func() *harness.Table) func(harness.Options) ([]*harness.Table, error) {
	return func(harness.Options) ([]*harness.Table, error) { return []*harness.Table{f()}, nil }
}

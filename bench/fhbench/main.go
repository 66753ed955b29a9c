// Command fhbench is the repository benchmark: it runs five workloads
// through the campaign engine, the report generator, the serving daemon
// and the cluster fabric, checks every output, and prints the
// end-to-end metrics of untraced rounds and the per-layer metrics of
// traced ones. See bench/README.md.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	fhbench [-seed 7] [-out dir] [-write-golden] [-history file]
//	    a full run: every workload, an untraced pass and a traced pass;
//	    writes <out>/result.json and Perfetto traces under <out>/trace
//	fhbench -workload W -seed N -seconds S -trace 0|1
//	    one workload for S seconds; the last line of standard output is
//	    the JSON result BENCHMARK.json describes
//	fhbench compare A.json B.json
//	    compares two full runs' result.json, metric by metric
//
// Every round runs in a fresh child process (fhbench child <config>),
// one at a time, with GOMAXPROCS=2.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"faulthound/internal/buildinfo"
)

const (
	defaultSeed = 7
	// tracedRounds is the traced pass of a full run, per workload.
	tracedRounds = 2
	// childTimeout bounds one round, well inside the three minutes a
	// benchmark invocation may take.
	childTimeout = 120 * time.Second
	goldenPath   = "bench/testdata/golden.json"
)

func main() {
	processStart = time.Now()
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			childMain(os.Args[2:])
			return
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	var (
		name        = flag.String("workload", "", "run one workload for -seconds and print the one-line JSON result (default: a full run of every workload)")
		seed        = flag.Uint64("seed", defaultSeed, "input seed of deep-inject and served (the other workloads' inputs are fixed)")
		seconds     = flag.Int("seconds", 0, "with -workload: keep starting rounds for this long (0: the workload's full-run round count)")
		trace       = flag.Int("trace", 0, "with -workload: 1 runs traced rounds (alternating with untraced ones) and reports per-layer metrics")
		out         = flag.String("out", ".bench_build/fhbench", "directory for result.json and traces")
		writeGolden = flag.Bool("write-golden", false, "full run: record the default seed's output hashes in "+goldenPath+" instead of checking them")
		history     = flag.String("history", "", "full run: append this run's end-to-end medians as one line to this file")
	)
	flag.Parse()

	p, err := newParent(*out, *seed)
	if err != nil {
		fatal(err)
	}
	var code int
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fatal(err)
		}
		code = p.single(w, time.Duration(*seconds)*time.Second, *trace == 1)
	} else {
		code = p.full(*writeGolden, *history)
	}
	os.RemoveAll(p.scratch)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fhbench:", err)
	os.Exit(1)
}

// childMain runs one round and prints its result as JSON.
func childMain(args []string) {
	if len(args) != 1 {
		fatal(fmt.Errorf("child wants one JSON round config"))
	}
	var cfg roundConfig
	if err := json.Unmarshal([]byte(args[0]), &cfg); err != nil {
		fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(runRound(cfg)); err != nil {
		fatal(err)
	}
}

// parent starts the rounds and aggregates their results.
type parent struct {
	exe, root, out, scratch string
	seed                    uint64
	n                       int // rounds started
}

func newParent(out string, seed uint64) (*parent, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	// Traces belong to the latest invocation only.
	if err := os.RemoveAll(filepath.Join(out, "trace")); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(out, "trace"), 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(filepath.Dir(out), "rounds-")
	if err != nil {
		return nil, err
	}
	return &parent{exe: exe, root: root, out: out, scratch: scratch, seed: seed}, nil
}

// round runs one round of w in a fresh child process and waits for it.
func (p *parent) round(w workloadDef, traced bool) *roundResult {
	p.n++
	cfg := roundConfig{Workload: w.name, Seed: p.seed, Traced: traced, Root: p.root,
		Dir: filepath.Join(p.scratch, fmt.Sprintf("%s-%d", w.name, p.n))}
	if traced {
		cfg.TracePath = filepath.Join(p.out, "trace", fmt.Sprintf("%s-%d.json", w.name, p.n))
	}
	t0 := time.Now()
	res, err := runChild(p.exe, cfg)
	os.RemoveAll(cfg.Dir)
	if err != nil {
		res = &roundResult{Attempted: 1, Failed: 1, Errors: []string{w.name + ": " + err.Error()}}
	}
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	fmt.Fprintf(os.Stderr, "fhbench: %-13s %-8s round %3d  %6.2fs  %d errors\n", w.name, kind, p.n, time.Since(t0).Seconds(), len(res.Errors))
	return res
}

func runChild(exe string, cfg roundConfig) (*roundResult, error) {
	arg, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "child", string(arg))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("round child: %w", err)
	}
	var res roundResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("round child output: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &res, nil
}

// single runs one workload for the given time (or its full-run round
// count) and prints the one-line result: the end-to-end metrics, or
// with trace the per-layer metrics of traced rounds, which alternate
// with untraced ones so the cost of tracing can be measured.
func (p *parent) single(w workloadDef, budget time.Duration, trace bool) int {
	golden, err := readGolden(p.root)
	if err != nil {
		fatal(err)
	}
	var traced, untraced []*roundResult
	start := time.Now()
	for i := 0; ; i++ {
		t := trace && i%2 == 0
		res := p.round(w, t)
		if t {
			traced = append(traced, res)
		} else {
			untraced = append(untraced, res)
		}
		done := time.Since(start) >= budget
		if budget == 0 {
			done = i+1 >= w.rounds
		}
		if trace && len(untraced) == 0 {
			done = false
		}
		if done || len(res.Errors) > 0 {
			break
		}
	}
	wr := summarizeWorkload(w, untraced, traced)
	wr.Errors = verify(w, append(untraced, traced...), p.seed, golden)
	defs, samples := endToEnd, wr.EndToEnd
	if trace {
		defs, samples = perLayer, wr.PerLayer
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		s := samples[d.Name]
		if s.N == 0 {
			wr.Errors = append(wr.Errors, fmt.Sprintf("%s: no samples of %s", w.name, d.Name))
			continue
		}
		line.Metrics[d.Name] = metricValue{Value: s.Median, Unit: d.Unit}
	}
	line.Correct = len(wr.Errors) == 0
	printWorkload(os.Stderr, wr, trace, !trace)
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is a full run's result.json, the input of fhbench compare.
type runReport struct {
	Schema    string           `json:"schema"`
	Commit    string           `json:"commit"`
	Date      string           `json:"date"`
	Go        string           `json:"go"`
	NProc     int              `json:"nproc"`
	Seed      uint64           `json:"seed"`
	Correct   bool             `json:"correct"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string             `json:"name"`
	Rounds    int                `json:"rounds"`
	Traced    int                `json:"traced_rounds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer"`
	// SelfS is each layer's self time, median over traced rounds;
	// Closure is the worst ledger closure error of any traced run.
	SelfS   map[string]float64 `json:"self_s"`
	Closure float64            `json:"ledger_closure"`
	Errors  []string           `json:"errors,omitempty"`
}

// full runs every workload: an untraced pass whose rounds interleave
// across workloads, so a burst of load from elsewhere on the machine
// spreads over all of them instead of sinking one, then a traced pass.
func (p *parent) full(writeGolden bool, history string) int {
	golden := map[string]map[string]string{}
	if writeGolden && p.seed != defaultSeed {
		fatal(fmt.Errorf("-write-golden records the default seed %d", defaultSeed))
	}
	if !writeGolden {
		var err error
		if golden, err = readGolden(p.root); err != nil {
			fatal(err)
		}
	}
	untraced := map[string][]*roundResult{}
	traced := map[string][]*roundResult{}
	most := 0
	for _, w := range workloads {
		most = max(most, w.rounds)
	}
	for i := 0; i < most; i++ {
		for _, w := range workloads {
			if i < w.rounds {
				untraced[w.name] = append(untraced[w.name], p.round(w, false))
			}
		}
	}
	for i := 0; i < tracedRounds; i++ {
		for _, w := range workloads {
			traced[w.name] = append(traced[w.name], p.round(w, true))
		}
	}

	info := buildinfo.Resolve()
	rep := runReport{Schema: "fhbench/v1", Commit: info.Commit, Date: time.Now().UTC().Format(time.RFC3339),
		Go: runtime.Version(), NProc: runtime.NumCPU(), Seed: p.seed, Correct: true}
	if rep.Commit == "" {
		rep.Commit = "unknown"
	}
	for _, w := range workloads {
		all := append(untraced[w.name], traced[w.name]...)
		wr := summarizeWorkload(w, untraced[w.name], traced[w.name])
		if writeGolden && len(all) > 0 {
			golden[w.name] = all[0].Outputs
		}
		wr.Errors = verify(w, all, p.seed, golden)
		if err := checkComplete(endToEnd, wr.EndToEnd); err != nil {
			wr.Errors = append(wr.Errors, w.name+": "+err.Error())
		}
		if err := checkComplete(perLayer, wr.PerLayer); err != nil {
			wr.Errors = append(wr.Errors, w.name+": "+err.Error())
		}
		rep.Correct = rep.Correct && len(wr.Errors) == 0
		rep.Workloads = append(rep.Workloads, wr)
		printWorkload(os.Stdout, wr, true, true)
	}
	resPath := filepath.Join(p.out, "result.json")
	if err := writeJSON(resPath, rep); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s and traces under %s\n", resPath, filepath.Join(p.out, "trace"))
	if !rep.Correct {
		fmt.Println("FAILED: see the errors above")
		return 1
	}
	if writeGolden {
		if err := writeJSON(filepath.Join(p.root, goldenPath), golden); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", goldenPath)
	}
	if history != "" {
		if err := appendHistory(history, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("appended this run to %s\n", history)
	}
	return 0
}

// summarizeWorkload aggregates a workload's rounds.
func summarizeWorkload(w workloadDef, untraced, traced []*roundResult) workloadReport {
	wr := workloadReport{Name: w.name, Rounds: len(untraced), Traced: len(traced),
		EndToEnd: map[string]summary{}, PerLayer: map[string]summary{}, SelfS: map[string]float64{}}
	for _, r := range append(untraced, traced...) {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
	}
	ok := func(rs []*roundResult) []*roundResult {
		var out []*roundResult
		for _, r := range rs {
			if len(r.Errors) == 0 {
				out = append(out, r)
			}
		}
		return out
	}
	untraced, traced = ok(untraced), ok(traced)
	if len(untraced) > 0 {
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = summarize(d.Unit, endToEndSamples(untraced)[d.Name])
		}
	}
	if len(traced) > 0 {
		samples := perLayerSamples(traced, untraced)
		for _, d := range perLayer {
			if xs, ok := samples[d.Name]; ok {
				wr.PerLayer[d.Name] = summarize(d.Unit, xs)
			}
		}
		layers := map[string][]float64{}
		for _, r := range traced {
			for l, s := range r.SelfS {
				layers[l] = append(layers[l], s)
			}
			wr.Closure = max(wr.Closure, r.Closure)
		}
		for l, xs := range layers {
			wr.SelfS[l] = median(xs)
		}
	}
	return wr
}

// verify collects every correctness failure of a workload's rounds:
// the rounds' own checks, rounds that disagree on an output or on the
// simulated counts, and outputs that differ from the committed golden
// hashes, which hold every workload's outputs at the default seed.
func verify(w workloadDef, rounds []*roundResult, seed uint64, golden map[string]map[string]string) []string {
	var errs []string
	for _, r := range rounds {
		errs = append(errs, r.Errors...)
	}
	if len(errs) > 0 || len(rounds) == 0 {
		return errs
	}
	first := rounds[0]
	for i, r := range rounds[1:] {
		for _, f := range sortedKeys(first.Outputs, r.Outputs) {
			if first.Outputs[f] != r.Outputs[f] {
				errs = append(errs, fmt.Sprintf("%s: %s differs between rounds 1 and %d", w.name, f, i+2))
			}
		}
		if r.Sim != first.Sim {
			errs = append(errs, fmt.Sprintf("%s: simulated counts differ between rounds 1 and %d: %+v vs %+v", w.name, i+2, first.Sim, r.Sim))
		}
	}
	want, ok := golden[w.name]
	if !ok || (w.seeded && seed != defaultSeed) {
		return errs
	}
	for _, f := range sortedKeys(want, first.Outputs) {
		if want[f] != first.Outputs[f] {
			errs = append(errs, fmt.Sprintf("%s: %s: hash %.12s, %s says %.12s", w.name, f, first.Outputs[f], goldenPath, want[f]))
		}
	}
	return errs
}

func sortedKeys(ms ...map[string]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

func readGolden(root string) (map[string]map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, err
	}
	var g map[string]map[string]string
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// appendHistory appends one line of end-to-end medians per workload to
// the trajectory file.
func appendHistory(path string, rep runReport) error {
	line := struct {
		Commit  string                        `json:"commit"`
		Date    string                        `json:"date"`
		NProc   int                           `json:"nproc"`
		Go      string                        `json:"go"`
		Seed    uint64                        `json:"seed"`
		Medians map[string]map[string]float64 `json:"medians"`
	}{Commit: rep.Commit, Date: rep.Date, NProc: rep.NProc, Go: rep.Go, Seed: rep.Seed, Medians: map[string]map[string]float64{}}
	for _, wr := range rep.Workloads {
		m := map[string]float64{}
		for name, s := range wr.EndToEnd {
			m[name] = s.Median
		}
		line.Medians[wr.Name] = m
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

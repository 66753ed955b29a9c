package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// printWorkload renders one workload's metrics: each by name with its
// unit, median, quartiles, tail percentile and sample count.
func printWorkload(w io.Writer, wr workloadReport, layers, e2e bool) {
	fmt.Fprintf(w, "\n%s: %d untraced + %d traced rounds, %d ops attempted, %d failed\n",
		wr.Name, wr.Rounds, wr.Traced, wr.Attempted, wr.Failed)
	row := func(name string, s summary) {
		line := fmt.Sprintf("  %-32s %12.6g %-8s [q1 %.6g, q3 %.6g]", name, s.Median, s.Unit, s.Q1, s.Q3)
		if s.TailPct > 0 {
			line += fmt.Sprintf(" p%d %.6g", s.TailPct, s.Tail)
		}
		fmt.Fprintf(w, "%s n=%d\n", line, s.N)
	}
	if e2e {
		for _, d := range endToEnd {
			if s, ok := wr.EndToEnd[d.Name]; ok {
				row(d.Name, s)
			}
		}
	}
	if layers && len(wr.PerLayer) > 0 {
		fmt.Fprintf(w, "  per layer (traced rounds):\n")
		for _, d := range perLayer {
			if s, ok := wr.PerLayer[d.Name]; ok {
				row(d.Name, s)
			}
		}
		var names []string
		for l := range wr.SelfS {
			names = append(names, l)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  self time per layer (s):")
		for _, l := range names {
			fmt.Fprintf(w, " %s %.4g", l, wr.SelfS[l])
		}
		fmt.Fprintf(w, "; campaign ledger closure %.2f%%\n", 100*wr.Closure)
	}
	for _, e := range wr.Errors {
		fmt.Fprintf(w, "  ERROR %s\n", e)
	}
}

// compareMain compares two full runs' result.json: for each workload
// and end-to-end metric, both sides' median and quartiles over rounds,
// the change in the median, and a verdict. It exits 1 if anything is
// worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: fhbench compare A/result.json B/result.json")
		return 2
	}
	var a, b runReport
	for i, p := range []*runReport{&a, &b} {
		raw, err := os.ReadFile(args[i])
		if err == nil {
			err = json.Unmarshal(raw, p)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fhbench compare: %s: %v\n", args[i], err)
			return 2
		}
	}
	return compare(os.Stdout, a, b)
}

func compare(w io.Writer, a, b runReport) int {
	code := 0
	fmt.Fprintf(w, "A %s (%s)\nB %s (%s)\n", a.Commit, a.Date, b.Commit, b.Date)
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%s: missing from B\n", wa.Name)
			code = 1
			continue
		}
		fmt.Fprintf(w, "%s\n", wa.Name)
		for _, d := range endToEnd {
			ra, rb := wa.EndToEnd[d.Name].Rounds, wb.EndToEnd[d.Name].Rounds
			delta, v := judge(d, ra, rb)
			if v == worse {
				code = 1
			}
			q1a, q3a := quartiles(ra)
			q1b, q3b := quartiles(rb)
			fmt.Fprintf(w, "  %-12s A %10.5g [%.5g, %.5g]  B %10.5g [%.5g, %.5g]  %+6.1f%%  %-10s (bound %.0f%%)\n",
				d.Name, median(ra), q1a, q3a, median(rb), q1b, q3b, 100*delta, v, 100*d.Bound)
		}
		fa, fb := failedFrac(wa), failedFrac(*wb)
		v := within
		if fb > fa {
			v, code = worse, 1
		}
		fmt.Fprintf(w, "  %-12s A %10.5g  B %10.5g  %s (any increase is worse)\n", "failed_frac", fa, fb, v)
	}
	return code
}

func failedFrac(wr workloadReport) float64 {
	if wr.Attempted == 0 {
		return 1
	}
	return float64(wr.Failed) / float64(wr.Attempted)
}

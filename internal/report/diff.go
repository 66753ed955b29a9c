package report

import (
	"fmt"
	"math"
	"sort"
)

// Delta is one metric whose value differs between two quality reports
// (or two bench files). Cell is "bench/scheme" ("" for file-level
// metrics).
type Delta struct {
	Cell   string
	Metric string
	A, B   float64
}

// String renders the delta for CLI output.
func (d Delta) String() string {
	where := d.Metric
	if d.Cell != "" {
		where = d.Cell + " " + d.Metric
	}
	return fmt.Sprintf("%s: %g -> %g (%+.2f%%)", where, d.B, d.A, d.RelChange()*100)
}

// RelChange is (A-B)/|B| (0 when both are zero; +Inf when only B is).
func (d Delta) RelChange() float64 {
	if d.A == d.B {
		return 0
	}
	if d.B == 0 {
		return math.Inf(sign(d.A))
	}
	return (d.A - d.B) / math.Abs(d.B)
}

func sign(f float64) int {
	if f < 0 {
		return -1
	}
	return 1
}

// Within reports whether the delta is inside a relative tolerance:
// |A-B| <= tol * max(|A|, |B|).
func (d Delta) Within(tol float64) bool {
	return math.Abs(d.A-d.B) <= tol*math.Max(math.Abs(d.A), math.Abs(d.B))
}

// metrics flattens a cell into named numeric metrics, in a fixed
// order.
func (c *CellQuality) metrics() []Delta {
	var out []Delta
	add := func(name string, v float64) { out = append(out, Delta{Metric: name, A: v}) }
	add("outcomes.masked", float64(c.Outcomes.Masked))
	add("outcomes.noisy", float64(c.Outcomes.Noisy))
	add("outcomes.sdc", float64(c.Outcomes.SDC))
	add("detected", float64(c.Detected))
	add("fp_rate", c.FPRate)
	if c.Coverage != nil {
		add("coverage.sdc_base", float64(c.Coverage.SDCBase))
		add("coverage.covered", float64(c.Coverage.Covered))
		add("coverage.coverage", c.Coverage.Coverage)
	}
	if c.Latency != nil {
		add("latency.count", float64(c.Latency.Count))
		add("latency.p50", float64(c.Latency.P50))
		add("latency.p95", float64(c.Latency.P95))
		add("latency.max", float64(c.Latency.Max))
		for _, b := range c.Latency.Hist {
			add(fmt.Sprintf("latency.hist.le%d", b.Le), float64(b.Count))
		}
	}
	if c.Confusion != nil {
		for _, row := range []struct {
			name string
			o    Outcomes
		}{{"masked", c.Confusion.Masked}, {"noisy", c.Confusion.Noisy}, {"sdc", c.Confusion.SDC}} {
			add("confusion."+row.name+".masked", float64(row.o.Masked))
			add("confusion."+row.name+".noisy", float64(row.o.Noisy))
			add("confusion."+row.name+".sdc", float64(row.o.SDC))
		}
	}
	return out
}

// Diff compares two quality reports metric by metric and returns every
// difference: changed values, plus metrics or whole cells present on
// one side only (rendered with NaN on the missing side). A report
// diffed against itself returns nil.
func Diff(a, b *Quality) []Delta {
	var out []Delta
	if a.Injections != b.Injections {
		out = append(out, Delta{Metric: "injections_per_cell", A: float64(a.Injections), B: float64(b.Injections)})
	}

	index := func(q *Quality) map[string]*CellQuality {
		m := make(map[string]*CellQuality, len(q.Cells))
		for i := range q.Cells {
			c := &q.Cells[i]
			m[c.Bench+"/"+c.Scheme] = c
		}
		return m
	}
	am, bm := index(a), index(b)
	keys := make([]string, 0, len(am))
	for k := range am {
		keys = append(keys, k)
	}
	for k := range bm {
		if _, ok := am[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	for _, k := range keys {
		ac, bc := am[k], bm[k]
		switch {
		case ac == nil:
			out = append(out, Delta{Cell: k, Metric: "cell", A: math.NaN(), B: 0})
		case bc == nil:
			out = append(out, Delta{Cell: k, Metric: "cell", A: 0, B: math.NaN()})
		default:
			ams, bms := ac.metrics(), bc.metrics()
			an := map[string]float64{}
			for _, m := range ams {
				an[m.Metric] = m.A
			}
			bn := map[string]float64{}
			for _, m := range bms {
				bn[m.Metric] = m.A
			}
			names := make([]string, 0, len(an))
			for _, m := range ams {
				names = append(names, m.Metric)
			}
			for _, m := range bms {
				if _, ok := an[m.Metric]; !ok {
					names = append(names, m.Metric)
				}
			}
			for _, name := range names {
				av, aok := an[name]
				bv, bok := bn[name]
				switch {
				case !aok:
					out = append(out, Delta{Cell: k, Metric: name, A: math.NaN(), B: bv})
				case !bok:
					out = append(out, Delta{Cell: k, Metric: name, A: av, B: math.NaN()})
				case av != bv:
					out = append(out, Delta{Cell: k, Metric: name, A: av, B: bv})
				}
			}
		}
	}
	return out
}

// Exceeds filters deltas to those outside a relative tolerance.
// Missing-side deltas (NaN) always exceed.
func Exceeds(deltas []Delta, tol float64) []Delta {
	var out []Delta
	for _, d := range deltas {
		if math.IsNaN(d.A) || math.IsNaN(d.B) || !d.Within(tol) {
			out = append(out, d)
		}
	}
	return out
}

package harness

import (
	"context"
	"fmt"

	"faulthound/internal/campaign"
	"faulthound/internal/scheme"
	"faulthound/internal/workload"
)

// A figure is one experiment of the evaluation split in two: the cells
// it reads, and a pure render of its tables from an evaluated plan.
// Any set of figures evaluates as one plan, so a cell that several
// figures read runs once.
type figure struct {
	// campaign lists the cells whose fault campaigns the figure reads.
	// The Evaluator runs each one's baseline too, which its coverage
	// pairs against.
	campaign []campaign.Cell
	// timing lists the cells whose fault-free timing runs it reads.
	timing []campaign.Cell
	render func(p *plan) []*Table
}

// figureFunc builds a figure over the run's benchmarks.
type figureFunc func(bms []workload.Benchmark) figure

// cells is the benchmark-major cross product benches × schemes.
func cells(benches []string, schemes ...Scheme) []campaign.Cell {
	var out []campaign.Cell
	for _, bm := range benches {
		for _, s := range schemes {
			out = append(out, campaign.Cell{Bench: bm, Scheme: scheme.FromString(string(s))})
		}
	}
	return out
}

// union merges figures' cells, each distinct cell once, in first-seen
// order.
func union(figs []figure) (camp, timing []campaign.Cell) {
	seen, timed := map[campaign.Cell]bool{}, map[campaign.Cell]bool{}
	for _, f := range figs {
		for _, c := range f.campaign {
			if !seen[c] {
				seen[c] = true
				camp = append(camp, c)
			}
		}
		for _, c := range f.timing {
			if !timed[c] {
				timed[c] = true
				timing = append(timing, c)
			}
		}
	}
	return camp, timing
}

// plan is an evaluated union of figures' cells: an Evaluator that has
// run every campaign cell and timing cell they declare.
type plan struct {
	ev *campaign.Evaluator
	// err is the first lookup of a cell the plan lacks: a figure that
	// reads a cell it did not declare.
	err error
}

// render runs the figures' cells through one Evaluator and returns
// their tables in order.
func (o Options) render(fns ...figureFunc) ([]*Table, error) {
	bms, err := o.benchmarks()
	if err != nil {
		return nil, err
	}
	figs := make([]figure, len(fns))
	for i, fn := range fns {
		figs[i] = fn(bms)
	}
	camp, timing := union(figs)
	p := &plan{ev: o.NewEvaluator(nil, nil)}
	if err := p.ev.Run(context.Background(), camp, timing); err != nil {
		return nil, err
	}
	var out []*Table
	for _, f := range figs {
		out = append(out, f.render(p)...)
	}
	if p.err != nil {
		return nil, p.err
	}
	return out, nil
}

// renderOne is render for a figure of one table.
func (o Options) renderOne(fn figureFunc) (*Table, error) {
	ts, err := o.render(fn)
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// cell returns the campaign summary of bench/s.
func (p *plan) cell(bench string, s Scheme) campaign.CellSummary {
	c := campaign.Cell{Bench: bench, Scheme: scheme.FromString(string(s))}
	cs, ok := p.ev.Summary(c)
	if !ok {
		p.lack("campaign", c)
	}
	return cs
}

// coverage returns the paired coverage of scheme cell bench/s.
func (p *plan) coverage(bench string, s Scheme) campaign.CoverageSummary {
	if cov := p.cell(bench, s).Coverage; cov != nil {
		return *cov
	}
	return campaign.CoverageSummary{}
}

// timing returns the timing record of bench/s.
func (p *plan) timing(bench string, s Scheme) campaign.TimingMetrics {
	c := campaign.Cell{Bench: bench, Scheme: scheme.FromString(string(s))}
	tm, ok := p.ev.TimingOf(c)
	if !ok {
		p.lack("timing", c)
	}
	return tm
}

// lack records the first read of a cell the plan does not hold.
func (p *plan) lack(kind string, c campaign.Cell) {
	if p.err == nil {
		p.err = fmt.Errorf("harness: the plan has no %s cell %s", kind, c)
	}
}

// slowdown is run's performance degradation over base: the Figure-9
// recipe.
func slowdown(run, base campaign.TimingMetrics) float64 {
	return float64(run.Cycles)/float64(base.Cycles) - 1
}

// mean averages f over the benchmarks, summing in benchmark order.
func mean(benches []string, f func(bench string) float64) float64 {
	var sum float64
	for _, bm := range benches {
		sum += f(bm)
	}
	return sum / float64(len(benches))
}

// benchTable builds the evaluation's per-benchmark shape: one row per
// benchmark, one column per entry of cols holding val(bench, column) as
// a percentage, then the mean(all) row.
func benchTable(id, title string, benches, cols []string, val func(bench string, col int) float64) *Table {
	t := &Table{ID: id, Title: title, Columns: append([]string{"benchmark"}, cols...)}
	sums := make([]float64, len(cols))
	for _, bm := range benches {
		row := []string{bm}
		for i := range cols {
			v := val(bm, i)
			row = append(row, pct(v))
			sums[i] += v
		}
		t.AddRow(row...)
	}
	means := []string{"mean(all)"}
	for _, s := range sums {
		means = append(means, pct(s/float64(len(benches))))
	}
	t.AddRow(means...)
	return t
}

// meanTable builds the Figure-12 panel shape: one row per scheme,
// holding val's mean over the benchmarks.
func meanTable(id, title, col string, benches []string, schemes []Scheme, val func(bench string, s Scheme) float64) *Table {
	t := &Table{ID: id, Title: title, Columns: []string{"config", col}}
	for _, s := range schemes {
		t.AddRow(string(s), pct(mean(benches, func(bm string) float64 { return val(bm, s) })))
	}
	return t
}

// names returns the benchmarks' names.
func names(bms []workload.Benchmark) []string {
	out := make([]string, len(bms))
	for i, bm := range bms {
		out[i] = bm.Name
	}
	return out
}

// schemeNames returns the schemes as column headers.
func schemeNames(schemes []Scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = string(s)
	}
	return out
}

package main

import (
	"fmt"
	"math"
)

// metricDef names one metric with its unit and direction. Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before a change counts as a regression; Floor is an absolute allowance
// for metrics whose medians are so small that a share of them is below
// timer noise. Per-layer metrics have no bound. BENCHMARK.json repeats
// these definitions; TestBenchmarkJSONMatchesDefs keeps them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Floor  float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (see README.md for what each means per
// workload); they come from untraced rounds only.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.02},
	{Name: "inj_per_s", Unit: "inj/s", Better: "higher", Bound: 0.20},
	{Name: "report_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "job_p50_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer are the per-layer metrics of traced rounds, named
// <module>.<metric>. Every workload reports every one: a time is
// measured on every workload, and a layer a workload does not use shows
// as a zero count or fraction.
var perLayer = []metricDef{
	{Name: "pipeline.warm_detector_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.cycles_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pipeline.snapshot_us_p50", Unit: "us", Better: "lower"},
	{Name: "pipeline.digest_us_p50", Unit: "us", Better: "lower"},
	{Name: "fault.prepare_s_sum", Unit: "s", Better: "lower"},
	{Name: "fault.prepare_s_p50", Unit: "s", Better: "lower"},
	{Name: "fault.run_one_us_p50", Unit: "us", Better: "lower"},
	{Name: "fault.run_one_us_p90", Unit: "us", Better: "lower"},
	{Name: "fault.early_exit_frac", Unit: "fraction", Better: "higher"},
	{Name: "fault.fork_saved_frac", Unit: "fraction", Better: "higher"},
	{Name: "fault.masked_time_frac", Unit: "fraction", Better: "lower"},
	{Name: "fault.prepared_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "campaign.worker_idle_frac", Unit: "fraction", Better: "lower"},
	{Name: "campaign.head_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.tail_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.journal_bytes_per_inj", Unit: "bytes", Better: "lower"},
	{Name: "report.replay_prepare_frac", Unit: "fraction", Better: "lower"},
	{Name: "report.replay_run_frac", Unit: "fraction", Better: "lower"},
	{Name: "report.replayed_runs", Unit: "count", Better: "lower"},
	{Name: "server.front_door_frac", Unit: "fraction", Better: "lower"},
	{Name: "server.queue_wait_frac", Unit: "fraction", Better: "lower"},
	{Name: "cluster.leases", Unit: "count", Better: "lower"},
	{Name: "cluster.leases_expired", Unit: "count", Better: "lower"},
	{Name: "cluster.merge_frac", Unit: "fraction", Better: "lower"},
	{Name: "obs.trace_overhead_frac", Unit: "fraction", Better: "lower"},
}

// Verdicts of one end-to-end metric on one workload, baseline A against
// change B.
const (
	within     = "within"     // B is no worse than A by more than the bound
	worse      = "worse"      // B is worse than A by more than the bound
	unresolved = "unresolved" // the rounds spread wider than the bound
)

// judge compares B's samples of m against A's. A metric whose rounds
// spread (quartile distance) wider than the bound allows is unresolved
// rather than unchanged, unless every B sample beats every A sample.
func judge(m metricDef, a, b []float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	sign := 1.0 // +1: a larger value is worse
	if m.Better == "higher" {
		sign = -1
	}
	delta = (mb - ma) / math.Abs(ma)
	allowed := math.Max(m.Bound*math.Abs(ma), m.Floor)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	if math.Max(q3a-q1a, q3b-q1b) > allowed && !allBetter(sign, a, b) {
		return delta, unresolved
	}
	if sign*(mb-ma) > allowed {
		return delta, worse
	}
	return delta, within
}

// allBetter reports whether every sample of b beats every sample of a,
// where sign is +1 when larger values are worse.
func allBetter(sign float64, a, b []float64) bool {
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for _, x := range b {
		worstB = math.Max(worstB, sign*x)
	}
	for _, x := range a {
		bestA = math.Min(bestA, sign*x)
	}
	return len(a) > 0 && len(b) > 0 && worstB < bestA
}

// endToEndSamples turns a workload's untraced rounds into each
// end-to-end metric's samples, per round: one each, except report_s and
// job_p50_s, which have one per report and per job of the round.
func endToEndSamples(rounds []*roundResult) map[string][][]float64 {
	out := map[string][][]float64{}
	for _, r := range rounds {
		out["setup_s"] = append(out["setup_s"], []float64{r.SetupS})
		out["inj_per_s"] = append(out["inj_per_s"], []float64{float64(r.Injections) / r.InjWallS})
		out["report_s"] = append(out["report_s"], r.ReportS)
		out["job_p50_s"] = append(out["job_p50_s"], r.JobS)
		out["peak_rss_mb"] = append(out["peak_rss_mb"], []float64{r.PeakRSSMB})
	}
	return out
}

// perLayerSamples collects each per-layer metric over a workload's
// traced rounds, and derives the cost of tracing by comparing the
// traced rounds' injection wall time with the untraced rounds'.
func perLayerSamples(traced, untraced []*roundResult) map[string][][]float64 {
	out := map[string][][]float64{}
	var tw, uw []float64
	for _, r := range traced {
		for k, v := range r.Layer {
			out[k] = append(out[k], []float64{v})
		}
		tw = append(tw, r.InjWallS)
	}
	for _, r := range untraced {
		uw = append(uw, r.InjWallS)
	}
	if len(tw) > 0 && len(uw) > 0 {
		out["obs.trace_overhead_frac"] = [][]float64{{median(tw)/median(uw) - 1}}
	}
	return out
}

// checkComplete reports a metric a workload's rounds failed to produce.
func checkComplete(defs []metricDef, got map[string]summary) error {
	for _, d := range defs {
		if got[d.Name].N == 0 {
			return fmt.Errorf("no samples of %s", d.Name)
		}
	}
	return nil
}

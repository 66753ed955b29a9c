package search

import (
	"context"

	"faulthound/internal/campaign"
	"faulthound/internal/energy"
	"faulthound/internal/scheme"
)

// CampaignEval adapts the execute layer to the score layer: each
// proposed spec runs its fault campaign and timing run on every
// benchmark, beside the benchmark's baseline, and the objectives are
// averaged (arithmetic mean, matching the experiment tables' mean
// rows). The benchmark list must be non-empty and pre-resolved.
func CampaignEval(ev *campaign.Evaluator, benches []string) Evaluate {
	return func(ctx context.Context, specs []scheme.Spec) ([]Metrics, error) {
		var camp, timing []campaign.Cell
		for _, sp := range specs {
			for _, bm := range benches {
				c := campaign.Cell{Bench: bm, Scheme: sp}
				camp = append(camp, c)
				timing = append(timing, campaign.Cell{Bench: bm, Scheme: campaign.BaselineSpec}, c)
			}
		}
		if err := ev.Run(ctx, camp, timing); err != nil {
			return nil, err
		}
		out := make([]Metrics, len(specs))
		for si, sp := range specs {
			var agg Metrics
			for _, bm := range benches {
				c := campaign.Cell{Bench: bm, Scheme: sp}
				cs, _ := ev.Summary(c)
				if cs.Coverage != nil {
					agg.Coverage += cs.Coverage.Coverage
				}
				agg.FPRate += cs.FPRate
				// The Figure-10 and Figure-9 recipes against the
				// baseline's timing run.
				st, _ := ev.TimingOf(c)
				bt, _ := ev.TimingOf(campaign.Cell{Bench: bm, Scheme: campaign.BaselineSpec})
				agg.EnergyOverhead += energy.Overhead(st.Energy, bt.Energy)
				if bt.Cycles > 0 {
					agg.PerfOverhead += float64(st.Cycles)/float64(bt.Cycles) - 1
				}
			}
			if n := float64(len(benches)); n > 0 {
				agg.Coverage /= n
				agg.FPRate /= n
				agg.EnergyOverhead /= n
				agg.PerfOverhead /= n
			}
			out[si] = agg
		}
		return out, nil
	}
}

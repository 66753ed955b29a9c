package harness

import (
	"faulthound/internal/campaign"
	"faulthound/internal/fault"
)

// NewEvaluator builds the execute-layer evaluator for these options:
// core construction through the registry, the options' fault config
// and worker pool, and the Figure 9/10 timing/energy recipes for the
// overhead objectives. prepared may be nil (no cross-run golden
// sharing).
func (o Options) NewEvaluator(prepared *fault.PreparedCache, progress func(done, total int)) *campaign.Evaluator {
	return &campaign.Evaluator{
		Factory:  o.CampaignFactory(),
		Fault:    o.Fault,
		Workers:  o.Workers,
		Timing:   o.TimingRunner(),
		Prepared: prepared,
		Progress: progress,
	}
}

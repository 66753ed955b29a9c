package search_test

import (
	"context"
	"fmt"
	"testing"

	"faulthound/internal/harness"
	"faulthound/internal/scheme"
	"faulthound/internal/search"
)

func TestProbeGrid(t *testing.T) {
	t.Skip("manual probe")
	o := harness.QuickOptions()
	o.Fault.Injections = 96
	benches := []string{"gen?seg=16k", "gen?seg=16k,stride=64"}
	ev := o.NewEvaluator(nil, nil)
	eval := search.CampaignEval(ev, benches)
	var specs []scheme.Spec
	for _, s := range []string{
		"faulthound?tcam=2", "faulthound?tcam=4", "faulthound?tcam=8",
		"faulthound?tcam=16", "faulthound?tcam=32", "faulthound?tcam=64",
		"faulthound?loosen=2", "faulthound?loosen=8",
		"faulthound?delay=0", "faulthound?delay=3", "faulthound?delay=14",
		"faulthound?lsq=off", "faulthound?2level=off", "faulthound?squash=off",
	} {
		sp, err := scheme.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	ms, err := eval(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		fmt.Printf("%-28s cov=%.4f fp=%.5f en=%.4f perf=%.4f\n",
			sp, ms[i].Coverage, ms[i].FPRate, ms[i].EnergyOverhead, ms[i].PerfOverhead)
	}
}

package campaign_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"faulthound/internal/campaign"
	"faulthound/internal/harness"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
)

// TestEvaluatorRun drives the execute layer through two overlapping
// Runs with a counting Factory and TimingRunner. At one worker the
// engine prepares cells in plan order, so each benchmark's baseline,
// which no caller lists, must be prepared right ahead of its first
// scheme cell; the second Run must prepare only the cell the first did
// not run; every distinct timing cell runs once across both Runs; and
// every result at one worker equals the one at three.
func TestEvaluatorRun(t *testing.T) {
	o := harness.QuickOptions()
	o.Fault.Injections = 8
	a, b := "gen?seg=16k", "gen?seg=16k,stride=64"
	base, fh, pbfs := campaign.BaselineSpec, scheme.FromString("faulthound"), scheme.FromString("pbfs")
	rounds := []struct {
		camp, timing []campaign.Cell
		prepared     []campaign.Cell // in order, at one worker
	}{
		{
			camp:     []campaign.Cell{{Bench: a, Scheme: fh}, {Bench: b, Scheme: fh}},
			timing:   []campaign.Cell{{Bench: a, Scheme: base}, {Bench: a, Scheme: fh}, {Bench: a, Scheme: fh}},
			prepared: []campaign.Cell{{Bench: a, Scheme: base}, {Bench: a, Scheme: fh}, {Bench: b, Scheme: base}, {Bench: b, Scheme: fh}},
		},
		{
			camp:     []campaign.Cell{{Bench: a, Scheme: fh}, {Bench: a, Scheme: pbfs}},
			timing:   []campaign.Cell{{Bench: a, Scheme: base}, {Bench: b, Scheme: fh}},
			prepared: []campaign.Cell{{Bench: a, Scheme: pbfs}},
		},
	}

	type result struct {
		summaries map[campaign.Cell]campaign.CellSummary
		timings   map[campaign.Cell]campaign.TimingMetrics
	}
	run := func(workers int) result {
		var mu sync.Mutex
		var prepared []string
		timed := map[campaign.Cell]int{}
		factory, timing := o.CampaignFactory(), o.TimingRunner()
		ev := &campaign.Evaluator{
			Factory: func(bench string, sp scheme.Spec) (func() *pipeline.Core, error) {
				mu.Lock()
				prepared = append(prepared, campaign.Cell{Bench: bench, Scheme: sp}.String())
				mu.Unlock()
				return factory(bench, sp)
			},
			Timing: func(bench string, sp scheme.Spec) (campaign.TimingMetrics, error) {
				mu.Lock()
				timed[campaign.Cell{Bench: bench, Scheme: sp}]++
				mu.Unlock()
				return timing(bench, sp)
			},
			Fault:   o.Fault,
			Workers: workers,
		}
		res := result{map[campaign.Cell]campaign.CellSummary{}, map[campaign.Cell]campaign.TimingMetrics{}}
		for i, r := range rounds {
			prepared = nil
			if err := ev.Run(context.Background(), r.camp, r.timing); err != nil {
				t.Fatal(err)
			}
			want := make([]string, len(r.prepared))
			for j, c := range r.prepared {
				want[j] = c.String()
			}
			if workers > 1 {
				sort.Strings(prepared)
				sort.Strings(want)
			}
			if fmt.Sprint(prepared) != fmt.Sprint(want) {
				t.Errorf("workers %d, Run %d prepared %v, want %v", workers, i, prepared, want)
			}
			for _, c := range r.prepared {
				cs, ok := ev.Summary(c)
				if !ok {
					t.Fatalf("workers %d: no summary of %s", workers, c)
				}
				if (c.Scheme == base) != (cs.Coverage == nil) {
					t.Errorf("workers %d: %s has coverage %v", workers, c, cs.Coverage)
				}
				res.summaries[c] = cs
			}
			for _, c := range r.timing {
				tm, ok := ev.TimingOf(c)
				if !ok || tm.Cycles == 0 {
					t.Fatalf("workers %d: timing of %s = %+v, %v", workers, c, tm, ok)
				}
				res.timings[c] = tm
			}
		}
		for c, n := range timed {
			if n != 1 {
				t.Errorf("workers %d: timing cell %s ran %d times", workers, c, n)
			}
		}
		if len(timed) != 3 {
			t.Errorf("workers %d: %d distinct timing cells ran, want 3", workers, len(timed))
		}
		return res
	}
	if one, three := run(1), run(3); !reflect.DeepEqual(one, three) {
		t.Errorf("results differ between 1 and 3 workers:\n%+v\n%+v", one, three)
	}
}

// TestEvaluatorRunFails: timing cells without a TimingRunner are an
// error before any campaign cell runs, not a call through a nil func,
// and a cancelled context runs no timing cell and memoizes nothing.
func TestEvaluatorRunFails(t *testing.T) {
	o := harness.QuickOptions()
	ev := &campaign.Evaluator{Factory: o.CampaignFactory(), Fault: o.Fault}
	c := campaign.Cell{Bench: "bzip2", Scheme: scheme.FromString("faulthound")}
	if err := ev.Run(context.Background(), []campaign.Cell{c}, []campaign.Cell{c}); err == nil {
		t.Fatal("Run with timing cells and no TimingRunner succeeded")
	}
	if _, ok := ev.Summary(c); ok {
		t.Error("the failed Run ran its campaign cell")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev.Timing = func(string, scheme.Spec) (campaign.TimingMetrics, error) {
		t.Error("a timing cell ran under a cancelled context")
		return campaign.TimingMetrics{}, nil
	}
	if err := ev.Run(ctx, nil, []campaign.Cell{c}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a cancelled context: %v", err)
	}
	if _, ok := ev.TimingOf(c); ok {
		t.Error("the cancelled Run memoized a timing cell")
	}
}

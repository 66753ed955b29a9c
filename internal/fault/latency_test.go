package fault

import (
	"context"
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/obs"
)

// obsLatency pairs a run's lifecycle instants the way a trace reader
// does: the first "detect" after the "inject", minus the "inject"
// cycle. ok is false when the run emitted no detector action.
func obsLatency(evs []obs.Event) (lat uint64, ok bool) {
	var inject uint64
	armed := false
	for _, ev := range evs {
		if ev.Kind != obs.KindInstant {
			continue
		}
		switch ev.Name {
		case "inject":
			inject, armed = ev.Cycle, true
		case "detect":
			if armed {
				return ev.Cycle - inject, true
			}
		}
	}
	return 0, false
}

// TestDetectLatency pins Result.DetectLatency to the obs stream of the
// same run, on FaultHound cells, which Prepare always checkpoints for
// forking and early exit: every detected run carries its inject-to-detect cycle delta (at
// least 1), and every undetected run carries 0. smallConfig's 80
// injections detect only a handful of faults, so the cells run 250.
func TestDetectLatency(t *testing.T) {
	fh := core.DefaultConfig()
	cfg := smallConfig()
	cfg.Injections = 250
	for _, bench := range []string{"bzip2", "mcf"} {
		t.Run(bench, func(t *testing.T) {
			p, err := Prepare(mkCore(t, bench, &fh), cfg)
			if err != nil {
				t.Fatal(err)
			}
			detected := 0
			for i, inj := range p.Injections() {
				col := &obs.Collector{}
				res, err := p.RunOne(context.Background(), inj, NewWorker(col))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Detected {
					if res.DetectLatency != 0 {
						t.Errorf("injection %d: undetected run has DetectLatency %d", i, res.DetectLatency)
					}
					continue
				}
				detected++
				want, ok := obsLatency(col.Events())
				if !ok || res.DetectLatency < 1 || res.DetectLatency != want {
					t.Errorf("injection %d: DetectLatency %d, obs stream says %d (detect seen %v)", i, res.DetectLatency, want, ok)
				}
			}
			if detected == 0 {
				t.Fatal("no detected runs: the check is vacuous")
			}
			t.Logf("%d of %d runs detected", detected, len(p.Injections()))
		})
	}
}

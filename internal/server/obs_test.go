package server

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"faulthound/internal/obs"
	"faulthound/internal/obs/metrics"
)

// sinkEvents is a two-worker event stream over cells: each injection
// begins, may flip and detect, and ends with an outcome or cancelled;
// track 1 switches cells midway and returns to the first.
func sinkEvents(cells ...string) []obs.Event {
	var evs []obs.Event
	outcomes := []string{"masked", "sdc", "noisy", "masked", "cancelled", "masked"}
	for i := 0; i < 12; i++ {
		track := i % 2
		cell := cells[0]
		if track == 1 && i >= 4 && i < 10 {
			cell = cells[1]
		}
		evs = append(evs, obs.Event{Kind: obs.KindBegin, Name: "injection", Track: track, Arg: cell})
		if i%3 != 2 {
			evs = append(evs, obs.Event{Kind: obs.KindInstant, Name: "inject", Track: track, Cycle: uint64(100 + i)})
			evs = append(evs, obs.Event{Kind: obs.KindInstant, Name: "detect", Track: track, Cycle: uint64(100 + i + 3*i)})
		}
		evs = append(evs, obs.Event{Kind: obs.KindEnd, Name: "injection", Track: track,
			Dur: time.Duration(i+1) * time.Millisecond, Arg: outcomes[i%len(outcomes)]})
	}
	return evs
}

// referenceSinkEvent applies one event the way the sink did when it
// rendered every series on every event, splitting the cell at its
// first '/' (right for cells whose bench spec holds none).
func referenceSinkEvent(reg *metrics.Registry, cells map[int][2]string, inject map[int]uint64, ev obs.Event) {
	switch {
	case ev.Kind == obs.KindBegin && ev.Name == "injection":
		bench, scheme, _ := strings.Cut(ev.Arg, "/")
		cells[ev.Track] = [2]string{bench, scheme}
		delete(inject, ev.Track)
	case ev.Kind == obs.KindInstant && ev.Name == "inject":
		inject[ev.Track] = ev.Cycle
	case ev.Kind == obs.KindInstant && ev.Name == "detect":
		if at, ok := inject[ev.Track]; ok && ev.Cycle >= at {
			c := cells[ev.Track]
			reg.HistogramWith(detLatName, detLatHelp, detLatBuckets(),
				map[string]string{"bench": c[0], "scheme": c[1]}).Observe(float64(ev.Cycle - at))
		}
	case ev.Kind == obs.KindEnd && ev.Name == "injection" && ev.Arg != "cancelled":
		c := cells[ev.Track]
		reg.HistogramWith(injDurName, injDurHelp, injDurBuckets(),
			map[string]string{"bench": c[0], "scheme": c[1]}).Observe(ev.Dur.Seconds())
		reg.CounterWith(outcomeName, outcomeHelp,
			map[string]string{"bench": c[0], "scheme": c[1], "outcome": ev.Arg}).Inc()
	}
}

// registerCells registers a job's series up front, as runCampaign does.
func registerCells(reg *metrics.Registry, cells [][2]string) {
	for _, c := range cells {
		labels := map[string]string{"bench": c[0], "scheme": c[1]}
		reg.HistogramWith(injDurName, injDurHelp, injDurBuckets(), labels)
		reg.HistogramWith(detLatName, detLatHelp, detLatBuckets(), labels)
		for _, o := range []string{"masked", "noisy", "sdc"} {
			reg.CounterWith(outcomeName, outcomeHelp, map[string]string{"bench": c[0], "scheme": c[1], "outcome": o})
		}
	}
}

func metricsText(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMetricsSinkMatchesPerEventLabels: resolving a cell's series once
// per span changes no byte of /metrics for ordinary cells.
func TestMetricsSinkMatchesPerEventLabels(t *testing.T) {
	cells := [][2]string{{"bzip2", "faulthound"}, {"gen?seg=16k,stride=64", "faulthound?tcam=16"}}
	got, want := metrics.NewRegistry(), metrics.NewRegistry()
	registerCells(got, cells)
	registerCells(want, cells)
	sink := newMetricsSink(got, got.Gauge("fhserved_injections_inflight", "In-flight injections."))
	inflight := want.Gauge("fhserved_injections_inflight", "In-flight injections.")
	refCells, refInject := map[int][2]string{}, map[int]uint64{}
	for _, ev := range sinkEvents(cells[0][0]+"/"+cells[0][1], cells[1][0]+"/"+cells[1][1]) {
		sink.Event(ev)
		referenceSinkEvent(want, refCells, refInject, ev)
		switch {
		case ev.Kind == obs.KindBegin:
			inflight.Add(1)
		case ev.Kind == obs.KindEnd:
			inflight.Add(-1)
		}
	}
	if g, w := metricsText(t, got), metricsText(t, want); g != w {
		t.Fatalf("/metrics differs from per-event label rendering:\n--- got\n%s\n--- want\n%s", g, w)
	}
}

// TestMetricsSinkSlashInBench: a replay bench spec holds a path, so the
// cell splits at its last '/', and the sink's series are the ones the
// job registered up front.
func TestMetricsSinkSlashInBench(t *testing.T) {
	const bench, scheme = "replay?trace=/tmp/s.fhws", "faulthound"
	reg := metrics.NewRegistry()
	registerCells(reg, [][2]string{{bench, scheme}})
	sink := newMetricsSink(reg, reg.Gauge("fhserved_injections_inflight", "In-flight injections."))
	for _, ev := range sinkEvents(bench+"/"+scheme, bench+"/"+scheme) {
		sink.Event(ev)
	}
	text := metricsText(t, reg)
	for _, want := range []string{
		`fhserved_injection_outcomes_total{bench="replay?trace=/tmp/s.fhws",outcome="masked",scheme="faulthound"} 6`,
		`fhserved_injection_duration_seconds_count{bench="replay?trace=/tmp/s.fhws",scheme="faulthound"} 10`,
		`fhserved_detection_latency_cycles_count{bench="replay?trace=/tmp/s.fhws",scheme="faulthound"} 8`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	if strings.Contains(text, `bench="replay?trace="`) {
		t.Errorf("a series split the bench at its first '/':\n%s", text)
	}
}

package server

import (
	"strings"
	"sync"

	"faulthound/internal/obs"
	"faulthound/internal/obs/metrics"
)

// Metric names and help strings for the per-injection series. They are
// package-level so runJob can register every cell's series eagerly (a
// scrape before the first observation still sees the zero-count
// buckets the smoke test asserts on).
const (
	injDurName  = "fhserved_injection_duration_seconds"
	injDurHelp  = "Wall time of individual faulty runs."
	detLatName  = "fhserved_detection_latency_cycles"
	detLatHelp  = "Cycles from fault injection to the first detector action."
	outcomeName = "fhserved_injection_outcomes_total"
	outcomeHelp = "Injections by classified outcome."
)

// injDurBuckets spans 1ms..8s doubling; a faulty run is a bounded
// replayed window, so the tail is short.
func injDurBuckets() []float64 { return metrics.ExpBuckets(0.001, 2, 14) }

// detLatBuckets spans 1..4096 cycles doubling; FaultHound's detection
// window is a few pipeline drains at most.
func detLatBuckets() []float64 { return metrics.ExpBuckets(1, 2, 13) }

// metricsSink folds a campaign engine's lifecycle event stream into
// the daemon's registry. One instance serves one engine run: tracks
// are that engine's worker indices, so per-track state (which cell the
// open injection span belongs to, the injection cycle) is keyed by
// Event.Track. All methods are called from engine worker goroutines.
type metricsSink struct {
	reg      *metrics.Value // fhserved_injections_inflight gauge
	registry *metrics.Registry

	mu     sync.Mutex
	tracks map[int]*trackState
}

// trackState is one track's open injection span. The cell's series
// are resolved when a span of a new cell begins, so an injection's end
// renders no labels.
type trackState struct {
	cell        string // the cell the series below belong to
	bench       string
	scheme      string
	dur, lat    *metrics.Histogram
	outcomes    map[string]*metrics.Value
	injectCycle uint64
	haveInject  bool
}

func newMetricsSink(reg *metrics.Registry, inflight *metrics.Value) *metricsSink {
	return &metricsSink{reg: inflight, registry: reg, tracks: make(map[int]*trackState)}
}

func (m *metricsSink) Event(ev obs.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.tracks[ev.Track]
	if st == nil {
		st = &trackState{}
		m.tracks[ev.Track] = st
	}
	switch {
	case ev.Kind == obs.KindBegin && ev.Name == "injection":
		if ev.Arg != st.cell || st.dur == nil {
			st.setCell(m.registry, ev.Arg)
		}
		st.haveInject = false
		m.reg.Add(1)
	case ev.Kind == obs.KindInstant && ev.Name == "inject":
		st.injectCycle, st.haveInject = ev.Cycle, true
	case ev.Kind == obs.KindInstant && ev.Name == "detect":
		if st.haveInject && ev.Cycle >= st.injectCycle {
			st.lat.Observe(float64(ev.Cycle - st.injectCycle))
		}
	case ev.Kind == obs.KindEnd && ev.Name == "injection":
		m.reg.Add(-1)
		if ev.Arg == "cancelled" {
			return
		}
		st.dur.Observe(ev.Dur.Seconds())
		c := st.outcomes[ev.Arg]
		if c == nil {
			c = m.registry.CounterWith(outcomeName, outcomeHelp,
				map[string]string{"bench": st.bench, "scheme": st.scheme, "outcome": ev.Arg})
			st.outcomes[ev.Arg] = c
		}
		c.Inc()
	}
}

// setCell points the track at cell's series. A cell is its bench spec,
// a '/', and its scheme spec; a bench spec may hold a '/' (a replay
// trace's path) and a scheme spec never does, so the split is at the
// last one.
func (st *trackState) setCell(reg *metrics.Registry, cell string) {
	st.cell, st.bench, st.scheme = cell, cell, ""
	if i := strings.LastIndexByte(cell, '/'); i >= 0 {
		st.bench, st.scheme = cell[:i], cell[i+1:]
	}
	labels := map[string]string{"bench": st.bench, "scheme": st.scheme}
	st.dur = reg.HistogramWith(injDurName, injDurHelp, injDurBuckets(), labels)
	st.lat = reg.HistogramWith(detLatName, detLatHelp, detLatBuckets(), labels)
	st.outcomes = make(map[string]*metrics.Value)
}

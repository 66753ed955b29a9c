// Package metrics is a minimal Prometheus-text-format registry shared
// by the whole stack: counters, gauges, and histograms, optionally
// labeled, rendered deterministically (families sorted by name, series
// by label string) so /metrics output is stable and testable. It is
// stdlib-only by design — the repo bakes in no dependencies — and
// implements just the exposition-format subset the daemon and CLIs
// need.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Value is one metric series: a float64 updated atomically. Counters
// and gauges share the representation; the family's type only changes
// how it is rendered and which mutators are idiomatic.
type Value struct {
	bits atomic.Uint64
}

// Add increments the series by d.
func (v *Value) Add(d float64) {
	for {
		old := v.bits.Load()
		cur := math.Float64frombits(old)
		if v.bits.CompareAndSwap(old, math.Float64bits(cur+d)) {
			return
		}
	}
}

// Inc increments the series by one.
func (v *Value) Inc() { v.Add(1) }

// Set replaces the series value (gauge semantics).
func (v *Value) Set(f float64) { v.bits.Store(math.Float64bits(f)) }

// Get returns the current value.
func (v *Value) Get() float64 { return math.Float64frombits(v.bits.Load()) }

// Histogram is one histogram series: cumulative buckets rendered as
// name_bucket{le="..."} lines plus name_sum and name_count. All
// mutators are atomic; Observe is safe for concurrent use. Beyond the
// exposition format the histogram tracks the exact observed maximum,
// so end-of-run summaries (p50/p95/max) come from the same data the
// daemon exports.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending, excluding +Inf
	labels  map[string]string
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sum     Value
	maxBits atomic.Uint64 // float bits of the observed maximum
}

// NewHistogram returns a standalone histogram with the given ascending
// upper bounds (the +Inf bucket is implicit). Standalone histograms
// back CLI-side summaries; registry-owned ones render on /metrics.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	sort.Float64s(h.bounds)
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: le is inclusive
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Get() }

// Max returns the exact observed maximum (0 with no observations).
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the owning bucket, the standard Prometheus
// histogram_quantile estimate. Observations in the +Inf bucket clamp
// to the observed maximum. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := float64(h.count.Load())
	if total == 0 {
		return 0
	}
	rank := q * total
	cum, lower := 0.0, 0.0
	for i, b := range h.bounds {
		c := float64(h.counts[i].Load())
		if cum+c >= rank && c > 0 {
			est := lower + (b-lower)*(rank-cum)/c
			if max := h.Max(); est > max {
				return max
			}
			return est
		}
		cum += c
		lower = b
	}
	return h.Max()
}

// ExpBuckets returns n exponentially spaced upper bounds: start,
// start*factor, start*factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// family is one metric name: its TYPE/HELP metadata and all label
// series under it.
type family struct {
	typ    string // "counter" | "gauge" | "histogram"
	help   string
	series map[string]*Value     // keyed by rendered label string ("" = unlabeled)
	hists  map[string]*Histogram // histogram families only
}

// Registry holds metric families.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns (creating if needed) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Value {
	return r.get(name, "counter", help, nil)
}

// Gauge returns (creating if needed) the unlabeled gauge name.
func (r *Registry) Gauge(name, help string) *Value {
	return r.get(name, "gauge", help, nil)
}

// GaugeWith returns (creating if needed) the labeled gauge series.
func (r *Registry) GaugeWith(name, help string, labels map[string]string) *Value {
	return r.get(name, "gauge", help, labels)
}

// CounterWith returns (creating if needed) the labeled counter series.
func (r *Registry) CounterWith(name, help string, labels map[string]string) *Value {
	return r.get(name, "counter", help, labels)
}

// Histogram returns (creating if needed) the unlabeled histogram name.
// bounds only takes effect at creation; later calls reuse the family's
// existing buckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.getHist(name, help, bounds, nil)
}

// HistogramWith returns (creating if needed) the labeled histogram
// series. Creating a labeled series eagerly — before any observation —
// makes its zero-count buckets visible on /metrics, so scrapers see
// the family as soon as the work it measures is scheduled.
func (r *Registry) HistogramWith(name, help string, bounds []float64, labels map[string]string) *Histogram {
	return r.getHist(name, help, bounds, labels)
}

func (r *Registry) get(name, typ, help string, labels map[string]string) *Value {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{typ: typ, help: help, series: make(map[string]*Value)}
		r.families[name] = f
	}
	v := f.series[key]
	if v == nil {
		v = &Value{}
		f.series[key] = v
	}
	return v
}

func (r *Registry) getHist(name, help string, bounds []float64, labels map[string]string) *Histogram {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{typ: "histogram", help: help, hists: make(map[string]*Histogram)}
		r.families[name] = f
	}
	h := f.hists[key]
	if h == nil {
		h = NewHistogram(bounds)
		if labels != nil {
			h.labels = make(map[string]string, len(labels))
			for k, v := range labels {
				h.labels[k] = v
			}
		}
		f.hists[key] = h
	}
	return h
}

// renderLabels produces the canonical {k="v",...} suffix, keys sorted,
// values escaped per the exposition format ("" for no labels).
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(labels[k])
		fmt.Fprintf(&sb, `%s="%s"`, k, esc)
	}
	sb.WriteByte('}')
	return sb.String()
}

// renderLabelsLE merges le into the series labels (histogram bucket
// lines carry both).
func renderLabelsLE(labels map[string]string, le string) string {
	merged := make(map[string]string, len(labels)+1)
	for k, v := range labels {
		merged[k] = v
	}
	merged["le"] = le
	return renderLabels(merged)
}

// formatFloat renders a sample value the way Prometheus clients do.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// WriteText renders the registry in the Prometheus text exposition
// format, deterministically ordered: families sorted by name, series
// by label string, histogram buckets by bound.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	var out strings.Builder
	for _, n := range names {
		f := r.families[n]
		if f.help != "" {
			fmt.Fprintf(&out, "# HELP %s %s\n", n, f.help)
		}
		fmt.Fprintf(&out, "# TYPE %s %s\n", n, f.typ)
		if f.typ == "histogram" {
			keys := make([]string, 0, len(f.hists))
			for k := range f.hists {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				h := f.hists[k]
				var cum uint64
				for i, b := range h.bounds {
					cum += h.counts[i].Load()
					fmt.Fprintf(&out, "%s_bucket%s %d\n", n, renderLabelsLE(h.labels, formatFloat(b)), cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				fmt.Fprintf(&out, "%s_bucket%s %d\n", n, renderLabelsLE(h.labels, "+Inf"), cum)
				fmt.Fprintf(&out, "%s_sum%s %s\n", n, k, formatFloat(h.Sum()))
				fmt.Fprintf(&out, "%s_count%s %d\n", n, k, cum)
			}
			continue
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&out, "%s%s %s\n", n, k, formatFloat(f.series[k].Get()))
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, out.String())
	return err
}

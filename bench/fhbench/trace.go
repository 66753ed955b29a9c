package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"faulthound/internal/campaign"
	"faulthound/internal/cluster"
	"faulthound/internal/fault"
	"faulthound/internal/obs"
	"faulthound/internal/pipeline"
)

// span is one timed call the benchmark made into a layer, or one engine
// event it observed through a hook the layer already has. Spans of one
// user-visible operation share Op; Parent is the span that caused this
// one (0 for a root). Track 0 is the benchmark's own goroutine; tracks
// from 1 are engine workers or cluster workers.
type span struct {
	ID     int
	Parent int
	Op     int
	Layer  string
	Name   string
	Track  int
	Start  time.Time
	End    time.Time
	Arg    string
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps a round's spans in memory until the round writes them
// out. A nil tracer records nothing: that is how untraced rounds run.
type tracer struct {
	mu    sync.Mutex
	ids   int
	spans []span
	// out is created with the tracer so the trace's time origin is the
	// round's start.
	out *obs.Perfetto
}

func newTracer() *tracer { return &tracer{out: obs.NewPerfetto()} }

// id allocates a span ID (0 on a nil tracer).
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a finished span under a freshly allocated ID.
func (t *tracer) record(parent, op int, layer, name string, track int, start, end time.Time, arg string) {
	t.add(span{ID: t.id(), Parent: parent, Op: op, Layer: layer, Name: name, Track: track, Start: start, End: end, Arg: arg})
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// faultProbe collects what the fault layer did in one round: every
// distinct golden preparation (for Prepared.Perf) and the duration of
// each preparation that built new golden state rather than reusing a
// cached one.
type faultProbe struct {
	mu       sync.Mutex
	prepared []*fault.Prepared
	seen     map[*fault.Prepared]bool
	prepS    []float64
	// parent and op place engine events under the run span in progress.
	parent, op int
	tr         *tracer
}

func newFaultProbe(tr *tracer) *faultProbe {
	return &faultProbe{seen: map[*fault.Prepared]bool{}, tr: tr}
}

// hook attaches the probe to an engine through Engine.Prepare and, when
// tracing, Engine.Obs, keeping any hooks the engine already has.
func (p *faultProbe) hook(eng *campaign.Engine, parent, op int) {
	base := eng.Prepare
	if base == nil {
		base = func(_ campaign.Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
			return fault.Prepare(mk, cfg)
		}
	}
	eng.Prepare = func(c campaign.Cell, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
		t0 := time.Now()
		fp, err := base(c, mk, cfg)
		if err == nil {
			p.keep(fp, time.Since(t0))
		}
		return fp, err
	}
	if p.tr != nil {
		p.setRun(parent, op)
		eng.Obs = obs.Tee(eng.Obs, p)
	}
}

// setRun places the events that follow under a run span.
func (p *faultProbe) setRun(parent, op int) {
	p.mu.Lock()
	p.parent, p.op = parent, op
	p.mu.Unlock()
}

func (p *faultProbe) run() (parent, op int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parent, p.op
}

// keep records a preparation; one seen before came from a cache.
func (p *faultProbe) keep(fp *fault.Prepared, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.seen[fp] {
		p.seen[fp] = true
		p.prepared = append(p.prepared, fp)
		p.prepS = append(p.prepS, d.Seconds())
	}
}

// Event implements obs.Sink: the engine's closed "prepare" and
// "injection" spans become fault-layer spans on the worker's track.
func (p *faultProbe) Event(ev obs.Event) {
	if ev.Kind != obs.KindEnd || (ev.Name != "prepare" && ev.Name != "injection") {
		return
	}
	parent, op := p.run()
	p.tr.record(parent, op, "fault", ev.Name, 1+ev.Track, ev.Wall.Add(-ev.Dur), ev.Wall, ev.Arg)
}

// perf sums Prepared.Perf over every preparation the probe saw.
func (p *faultProbe) perf() fault.Perf {
	p.mu.Lock()
	defer p.mu.Unlock()
	return sumPerf(p.prepared)
}

func sumPerf(ps []*fault.Prepared) fault.Perf {
	var t fault.Perf
	for _, fp := range ps {
		pf := fp.Perf()
		t.Runs += pf.Runs
		t.EarlyExits += pf.EarlyExits
		t.ForkCyclesSaved += pf.ForkCyclesSaved
		t.OffsetCycles += pf.OffsetCycles
	}
	return t
}

// leaseProbe wraps a cluster worker's handler and turns each shard
// stream it writes into spans: the lease (cluster layer), its wait for
// golden state up to the "prep" record, and one injection per "result"
// record (fault layer). The first lease of a cell on a worker is the
// one that prepared it; later ones hit the worker's cache.
func leaseProbe(h http.Handler, p *faultProbe, track int) http.Handler {
	var mu sync.Mutex
	warm := map[string]bool{}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		var sr cluster.ShardRequest
		_ = json.Unmarshal(body, &sr) // the worker itself rejects a bad request
		cell := sr.Bench + "/" + sr.Scheme
		mu.Lock()
		miss := !warm[cell]
		warm[cell] = true
		mu.Unlock()

		parent, op := p.run()
		lw := &leaseWriter{ResponseWriter: w, p: p, id: p.tr.id(), op: op, track: track, miss: miss, mark: time.Now()}
		start := lw.mark
		h.ServeHTTP(lw, req)
		p.tr.add(span{ID: lw.id, Parent: parent, Op: op, Layer: "cluster", Name: "lease", Track: track, Start: start, End: time.Now(), Arg: cell})
	})
}

type leaseWriter struct {
	http.ResponseWriter
	p             *faultProbe
	id, op, track int
	miss          bool
	mark          time.Time
	buf           []byte
}

// Write splits the stream into records and closes a span at each one.
func (w *leaseWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.buf = append(w.buf, b[:n]...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		var rec cluster.StreamRecord
		if json.Unmarshal(w.buf[:i], &rec) == nil {
			w.observe(rec)
		}
		w.buf = w.buf[i+1:]
	}
	return n, err
}

func (w *leaseWriter) observe(rec cluster.StreamRecord) {
	now := time.Now()
	switch rec.Kind {
	case cluster.KindPrep:
		arg := "hit"
		if w.miss {
			arg = "miss"
			w.p.mu.Lock()
			w.p.prepS = append(w.p.prepS, now.Sub(w.mark).Seconds())
			w.p.mu.Unlock()
		}
		w.p.tr.record(w.id, w.op, "fault", "prepare", w.track, w.mark, now, arg)
	case cluster.KindResult:
		if rec.Result == nil {
			return
		}
		w.p.tr.record(w.id, w.op, "fault", "injection", w.track, w.mark, now, rec.Result.Outcome.String())
	default:
		return
	}
	w.mark = now
}

// Flush keeps the worker's per-record flushes working through the probe.
func (w *leaseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// runLedger accounts for one campaign run in worker-seconds: workers ×
// wall should equal busy (fault spans on worker tracks) + idle (gaps
// between them on each track) + workers × (head + tail), where head runs
// from the run's entry to its first fault span and tail from its last
// fault span to the run's return.
type runLedger struct {
	Wall, Busy, Idle, Head, Tail float64
	Workers                      int
}

// closure is the share of workers × wall the ledger fails to account
// for; spans that overlap on one track, or a worker that never reported,
// push it above zero.
func (l runLedger) closure() float64 {
	total := float64(l.Workers) * l.Wall
	return math.Abs(l.Busy+l.Idle+float64(l.Workers)*(l.Head+l.Tail)-total) / total
}

// ledgerOf builds the ledger of run from the fault spans beneath it on
// worker tracks 1..workers.
func ledgerOf(run span, spans []span, workers int) runLedger {
	l := runLedger{Wall: run.dur().Seconds(), Workers: workers}
	under := descendants(run.ID, spans)
	byTrack := map[int][]span{}
	first, last := run.End, run.Start
	for _, s := range under {
		if s.Layer != "fault" || s.Track < 1 {
			continue
		}
		byTrack[s.Track] = append(byTrack[s.Track], s)
		if s.Start.Before(first) {
			first = s.Start
		}
		if s.End.After(last) {
			last = s.End
		}
	}
	if len(byTrack) == 0 {
		l.Idle = float64(workers) * l.Wall
		return l
	}
	l.Head = first.Sub(run.Start).Seconds()
	l.Tail = run.End.Sub(last).Seconds()
	for t := 1; t <= workers; t++ {
		ss := byTrack[t]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start.Before(ss[j].Start) })
		cursor := first
		for _, s := range ss {
			if gap := s.Start.Sub(cursor); gap > 0 {
				l.Idle += gap.Seconds()
			}
			l.Busy += s.dur().Seconds()
			if s.End.After(cursor) {
				cursor = s.End
			}
		}
		l.Idle += last.Sub(cursor).Seconds()
	}
	return l
}

// descendants returns every span below id.
func descendants(id int, spans []span) []span {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	var out []span
	stack := []int{id}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range kids[p] {
			out = append(out, k)
			stack = append(stack, k.ID)
		}
	}
	return out
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of it its child spans cover. Children that run in parallel cover
// their union once.
func selfTimes(spans []span) map[string]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += (s.dur() - covered(s, kids[s.ID])).Seconds()
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Time, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curB) {
			total += curB.Sub(curA)
			curA, curB = x[0], x[1]
			continue
		}
		if x[1].After(curB) {
			curB = x[1]
		}
	}
	return total + curB.Sub(curA)
}

// writePerfetto renders the spans as a Perfetto trace: each span is a
// begin/end pair named <layer>.<name>, its op, ID and parent in the
// event argument.
func (t *tracer) writePerfetto(path string, trackNames map[int]string) error {
	p, spans := t.out, t.all()
	for track, name := range trackNames {
		p.NameTrack(track, name)
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].End.After(spans[j].End) // parents before children
	})
	for _, s := range spans {
		name := s.Layer + "." + s.Name
		arg := fmt.Sprintf("op=%d id=%d parent=%d", s.Op, s.ID, s.Parent)
		if s.Arg != "" {
			arg += " " + s.Arg
		}
		p.Event(obs.Event{Kind: obs.KindBegin, Name: name, Track: s.Track, Wall: s.Start, Arg: arg})
		p.Event(obs.Event{Kind: obs.KindEnd, Name: name, Track: s.Track, Wall: s.End, Dur: s.dur()})
	}
	return p.WriteFile(path)
}

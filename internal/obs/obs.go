// Package obs is the zero-dependency observability layer threaded
// through the FaultHound stack: structured injection-lifecycle events
// (span begin/end around golden-run preparation and each faulty run,
// instants for the injection itself and every detector action), a
// pluggable Sink interface, and a Perfetto/Chrome trace-event JSON
// exporter that also consumes pipeline.TraceEvent — so one fhsim or
// fhcampaign invocation produces a file loadable in ui.perfetto.dev.
//
// Everything is opt-in and nil-safe by convention: producers
// (fault.(*Prepared).RunOne via its fault.Worker, campaign.Engine)
// skip all instrumentation when their sink is nil, keeping the
// disabled path free. Sinks must be
// safe for concurrent use; the campaign engine stamps each event with
// the emitting worker's index as Track. See docs/OBSERVABILITY.md for
// the event vocabulary.
package obs

import (
	"sync"
	"time"
)

// Kind classifies an event: a span boundary or a point event.
type Kind uint8

// Event kinds.
const (
	// KindBegin opens a span on the event's track.
	KindBegin Kind = iota
	// KindEnd closes the innermost open span of the same Name on the
	// event's track; Dur carries the span's measured duration.
	KindEnd
	// KindInstant is a point event (an injection, a detector action).
	KindInstant
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindEnd:
		return "end"
	case KindInstant:
		return "instant"
	}
	return "?"
}

// Event is one structured observability event. Wall is always stamped
// at emission; Cycle carries the simulated-clock position when the
// event originates inside a faulty run (0 otherwise). Arg is a small
// free-form detail: the campaign cell on spans, the injected structure
// on "inject" instants, the outcome on "injection" End events.
type Event struct {
	Kind  Kind
	Name  string
	Track int
	Wall  time.Time
	// Dur is the span duration, set on KindEnd events only.
	Dur time.Duration
	// Cycle is the simulated cycle of in-run events.
	Cycle uint64
	Arg   string
}

// Sink receives events. Implementations must be safe for concurrent
// use: campaign workers emit from multiple goroutines.
type Sink interface {
	Event(Event)
}

// Begin emits a span-begin event and returns its wall stamp for the
// matching End call. A nil sink is a no-op, so producers need no guard
// around straight-line span emission.
func Begin(s Sink, name, arg string) time.Time {
	now := time.Now()
	if s != nil {
		s.Event(Event{Kind: KindBegin, Name: name, Wall: now, Arg: arg})
	}
	return now
}

// End emits the span-end event matching a Begin at began. A nil sink
// is a no-op.
func End(s Sink, name string, began time.Time, arg string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.Event(Event{Kind: KindEnd, Name: name, Wall: now, Dur: now.Sub(began), Arg: arg})
}

// Instant emits a point event. A nil sink is a no-op.
func Instant(s Sink, name string, cycle uint64, arg string) {
	if s == nil {
		return
	}
	s.Event(Event{Kind: KindInstant, Name: name, Wall: time.Now(), Cycle: cycle, Arg: arg})
}

// Tee fans every event out to each non-nil sink. It returns nil when
// no sink remains, so producers keep their single nil check.
func Tee(sinks ...Sink) Sink {
	var out teeSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

type teeSink []Sink

// Event implements Sink.
func (t teeSink) Event(e Event) {
	for _, s := range t {
		s.Event(e)
	}
}

// WithTrack returns a sink that stamps every event's Track before
// forwarding — how the campaign engine gives each worker its own
// trace track. A nil inner sink yields nil.
func WithTrack(inner Sink, track int) Sink {
	if inner == nil {
		return nil
	}
	return trackSink{inner: inner, track: track}
}

type trackSink struct {
	inner Sink
	track int
}

// Event implements Sink.
func (t trackSink) Event(e Event) {
	e.Track = t.track
	t.inner.Event(e)
}

// Collector is a Sink that appends events under a lock — test and
// summary plumbing.
type Collector struct {
	mu  sync.Mutex
	evs []Event
}

// Event implements Sink.
func (c *Collector) Event(e Event) {
	c.mu.Lock()
	c.evs = append(c.evs, e)
	c.mu.Unlock()
}

// Events snapshots the collected events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.evs...)
}

package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"faulthound/internal/harness"
	"faulthound/internal/obs"
	"faulthound/internal/pipeline"
	"faulthound/internal/scheme"
	"faulthound/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chromeTrace mirrors the trace-event JSON shape for validation.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// validateTrace decodes a trace-event JSON blob and checks the
// structural invariants Perfetto's importer relies on: monotonic
// timestamps and, per track, matched B/E nesting.
func validateTrace(t *testing.T, raw []byte) chromeTrace {
	t.Helper()
	var tr chromeTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	lastTS := -1.0
	open := make(map[int][]string) // per-track span stack
	for i, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			continue // metadata carries no timestamp
		case "B":
			open[ev.TID] = append(open[ev.TID], ev.Name)
		case "E":
			stack := open[ev.TID]
			if len(stack) == 0 || stack[len(stack)-1] != ev.Name {
				t.Fatalf("event %d: E %q on track %d does not match open span stack %v", i, ev.Name, ev.TID, stack)
			}
			open[ev.TID] = stack[:len(stack)-1]
		case "i", "X":
		default:
			t.Fatalf("event %d: unexpected phase %q", i, ev.Ph)
		}
		if ev.TS < lastTS {
			t.Fatalf("event %d (%s): ts %v went backwards from %v", i, ev.Name, ev.TS, lastTS)
		}
		lastTS = ev.TS
	}
	for tid, stack := range open {
		if len(stack) != 0 {
			t.Errorf("track %d has unclosed spans %v", tid, stack)
		}
	}
	return tr
}

// TestPerfettoLifecycleTrace drives the exporter with a synthetic
// injection lifecycle across two concurrent tracks and validates the
// emitted JSON end to end.
func TestPerfettoLifecycleTrace(t *testing.T) {
	p := obs.NewPerfetto()
	p.NameTrack(0, "worker-0")
	p.NameTrack(1, "worker-1")
	for w := 0; w < 2; w++ {
		s := obs.WithTrack(obs.Sink(p), w)
		for i := 0; i < 3; i++ {
			began := obs.Begin(s, "injection", "bzip2/faulthound")
			obs.Instant(s, "inject", uint64(100_000+i), "regfile")
			obs.Instant(s, "replay", uint64(100_010+i), "")
			obs.End(s, "injection", began, "masked")
		}
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr := validateTrace(t, buf.Bytes())

	var begins, ends, instants, meta int
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "B":
			begins++
		case "E":
			ends++
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if begins != 6 || ends != 6 || instants != 12 || meta != 2 {
		t.Fatalf("B/E/i/M = %d/%d/%d/%d, want 6/6/12/2", begins, ends, instants, meta)
	}
}

// TestPerfettoPipelineGolden is the fhsim -trace path in miniature: a
// short deterministic simulation traced through the Perfetto exporter
// must reproduce the committed golden file byte for byte (regenerate
// with go test ./internal/obs/ -run Golden -update).
func TestPerfettoPipelineGolden(t *testing.T) {
	bm, err := workload.Get("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.QuickOptions()
	c, err := opts.BuildCoreSpec(bm, scheme.Spec{Name: "faulthound"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := obs.NewPerfetto()
	p.NameTrack(0, "smt-0")
	p.NameTrack(1, "smt-1")
	c.SetTracer(p.PipelineTracer(pipeline.TraceCommit, pipeline.TraceSquash,
		pipeline.TraceReplay, pipeline.TraceRollback, pipeline.TraceSingleton))
	for i := 0; i < 1500 && !c.AllHalted(); i++ {
		c.Step()
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	validateTrace(t, buf.Bytes())

	golden := filepath.Join("testdata", "pipeline_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace differs from golden file %s (regenerate with -update if the change is intended); got %d bytes, want %d",
			golden, buf.Len(), len(want))
	}
}

// TestTracerOrderingAcrossThreads pins the Tracer contract fhsim and
// the exporter rely on: events from a multithreaded core arrive in
// cycle order (the simulation loop is single-threaded), and each SMT
// thread's commit stream has strictly increasing sequence numbers.
func TestTracerOrderingAcrossThreads(t *testing.T) {
	bm, err := workload.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.QuickOptions()
	c, err := opts.BuildCoreSpec(bm, scheme.Spec{Name: "baseline"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var evs []pipeline.TraceEvent
	c.SetTracer(funcTracer(func(ev pipeline.TraceEvent) { evs = append(evs, ev) }))
	for i := 0; i < 500 && !c.AllHalted(); i++ {
		c.Step()
	}
	if len(evs) == 0 {
		t.Fatal("no trace events")
	}
	var lastCycle uint64
	lastSeq := map[int]uint64{}
	threads := map[int]bool{}
	for i, ev := range evs {
		if ev.Cycle < lastCycle {
			t.Fatalf("event %d: cycle %d after %d", i, ev.Cycle, lastCycle)
		}
		lastCycle = ev.Cycle
		threads[ev.Thread] = true
		if ev.Stage == pipeline.TraceCommit {
			if last, ok := lastSeq[ev.Thread]; ok && ev.Seq <= last {
				t.Fatalf("thread %d committed seq %d after %d", ev.Thread, ev.Seq, last)
			}
			lastSeq[ev.Thread] = ev.Seq
		}
	}
	if len(threads) < 2 {
		t.Fatalf("trace covers %d thread(s), want both SMT contexts", len(threads))
	}
}

type funcTracer func(pipeline.TraceEvent)

func (f funcTracer) Trace(ev pipeline.TraceEvent) { f(ev) }

package wgen

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
)

// TestStreamEncodeDecode: the wire format round-trips edge-case ops
// (zero and max values, descending addresses — negative deltas) and
// the hash is a pure function of the op sequence.
func TestStreamEncodeDecode(t *testing.T) {
	s := &Stream{
		Workload: "gen?stride=64",
		Seed:     7,
		Ops: []MemOp{
			{Store: false, Addr: 0x10000, Val: 0},
			{Store: true, Addr: 0x10008, Val: math.MaxUint64},
			{Store: false, Addr: 0x08000, Val: 1}, // negative delta
			{Store: true, Addr: 0x08000, Val: 0x3a7},
		},
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip: got %+v, want %+v", got, s)
	}
	if got.Hash() != s.Hash() {
		t.Fatal("hash changed across a round trip")
	}

	// The hash fingerprints ops only: a different label hashes equal, a
	// different op does not.
	relabel := &Stream{Workload: "other", Seed: 9, Ops: s.Ops}
	if relabel.Hash() != s.Hash() {
		t.Error("hash depends on the header")
	}
	mut := &Stream{Ops: append([]MemOp(nil), s.Ops...)}
	mut.Ops[2].Val++
	if mut.Hash() == s.Hash() {
		t.Error("hash missed an op mutation")
	}
}

// TestStreamReadRejects: corrupt artifacts fail loudly, not quietly.
func TestStreamReadRejects(t *testing.T) {
	s := &Stream{Workload: "gen", Ops: []MemOp{{Addr: 8, Val: 1}}}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for name, b := range map[string][]byte{
		"empty":      {},
		"bad magic":  []byte("NOPE1\n{}\n"),
		"bad header": []byte(streamMagic + "{oops\n"),
		"truncated":  full[:len(full)-1],
	} {
		if _, err := ReadStream(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestStreamReadBoundedAlloc: the header's op count is a claim the
// decoder must not pre-allocate for. A 47-byte header claiming the
// maximum 2^24 ops fails at EOF having allocated well under 1 MB.
func TestStreamReadBoundedAlloc(t *testing.T) {
	in := []byte(streamMagic + `{"workload":"x","seed":0,"ops":16777216}` + "\n")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadStream(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header-only stream accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("decoding a %d-byte header allocated %d bytes", len(in), n)
	}
}

// FuzzReadStream feeds raw bytes through everything a replay workload
// trusts: the FHWS1 decoder, FromStream and the program build. None of
// it may panic, and a stream that decodes re-encodes to itself. Seeds
// live in testdata/fuzz/FuzzReadStream.
func FuzzReadStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if again, err := ReadStream(&buf); err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("re-encoded stream reads back %+v, %v; want %+v", again, err, s)
		}
		w, err := FromStream(s)
		if err != nil {
			return
		}
		w.Build(prog.DefaultDataBase, 0)
	})
}

// recordRun builds a single-thread core over p and records the first
// max committed thread-0 memory ops.
func recordRun(t *testing.T, p *prog.Program, label string, max int) *Stream {
	t.Helper()
	c, err := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(label, 3, max)
	rec.Attach(c)
	for !rec.Full() && !c.AllHalted() && c.Cycle() < 5_000_000 {
		c.Run(4096)
	}
	if !rec.Full() {
		t.Fatalf("recorded only %d of %d ops", len(rec.Stream().Ops), max)
	}
	return rec.Stream()
}

// genStream records a gen-workload stream of n ops.
func genStream(t *testing.T, raw string, n int) *Stream {
	t.Helper()
	sp, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	return recordRun(t, w.Build(prog.DefaultDataBase, 3), sp.String(), n)
}

// TestRecordReplayRoundTrip is the regression test for the replay
// contract: a replayed stream's first pass re-commits the recorded
// load/store sequence byte for byte — same ops, same hash — even at a
// different data base.
func TestRecordReplayRoundTrip(t *testing.T) {
	const n = 600
	s1 := genStream(t, "gen?stride=64,chase=2,vlocal=0.7,seg=32k,plant=2", n)

	path := filepath.Join(t.TempDir(), "s1.fhws")
	if err := s1.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	disk, err := ReadStreamFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(disk.Ops, s1.Ops) {
		t.Fatal("artifact round trip changed the ops")
	}

	w, err := FromStream(disk)
	if err != nil {
		t.Fatal(err)
	}
	s2 := recordRun(t, w.Build(prog.DefaultDataBase, 0), "replay", n)
	if !reflect.DeepEqual(s2.Ops, s1.Ops) {
		t.Fatal("replayed stream is not byte-identical to the recording")
	}
	if s2.Hash() != s1.Hash() {
		t.Fatalf("replay hash %s, want %s", s2.Hash(), s1.Hash())
	}

	// Replay is base-independent: same op sequence modulo the base
	// shift, so the hash computed over rebased addresses differs but
	// the op count and store/load pattern match.
	lo := s1.Ops[0].Addr
	for _, op := range s1.Ops {
		if op.Addr < lo {
			lo = op.Addr
		}
	}
	const altBase = prog.DefaultDataBase + 1<<20
	s3 := recordRun(t, w.Build(altBase, 0), "replay", n)
	for i := range s3.Ops {
		if s3.Ops[i].Store != s1.Ops[i].Store || s3.Ops[i].Addr-altBase != s1.Ops[i].Addr-lo {
			t.Fatalf("op %d: rebased replay diverged", i)
		}
	}

	// The replay spec is rejected when the trace is missing, with a
	// workload-domain error (the CLI and daemon both branch on it).
	if _, err := Build(FromString("replay?trace=" + filepath.Join(t.TempDir(), "gone.fhws"))); err == nil || !IsSpecError(err) {
		t.Fatalf("missing trace: err = %v, want workload spec error", err)
	}
}

// TestFromStreamValidation: replay rejects streams it cannot honor.
func TestFromStreamValidation(t *testing.T) {
	if _, err := FromStream(&Stream{}); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := FromStream(&Stream{Ops: []MemOp{{Addr: 12}}}); err == nil ||
		!strings.Contains(err.Error(), "unaligned") {
		t.Errorf("unaligned address: err = %v", err)
	}
	if _, err := FromStream(&Stream{Ops: []MemOp{{Addr: 0}, {Addr: replaySegMax + 8}}}); err == nil ||
		!strings.Contains(err.Error(), "footprint") {
		t.Errorf("oversized footprint: err = %v", err)
	}
	// hi+8-lo wraps to 0 here; the footprint check must not.
	if _, err := FromStream(&Stream{Ops: []MemOp{{Addr: 0}, {Addr: math.MaxUint64 - 7}}}); err == nil ||
		!strings.Contains(err.Error(), "footprint") {
		t.Errorf("wrapped footprint: err = %v", err)
	}
}

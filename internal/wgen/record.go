package wgen

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"faulthound/internal/pipeline"
)

// MemOp is one committed memory operation of a recorded stream.
type MemOp struct {
	Store bool
	Addr  uint64
	// Val is the loaded value for loads, the stored value for stores.
	Val uint64
}

// Stream is a recorded committed load/store stream: the exact
// sequence of thread-0 memory operations a run retired, with the
// workload and seed that produced it.
type Stream struct {
	// Workload is the canonical spec (or benchmark name) recorded.
	Workload string
	// Seed is the data-initialization seed of the recorded run.
	Seed uint64
	Ops  []MemOp
}

// streamMagic heads the artifact file; the '1' is the format version.
const streamMagic = "FHWS1\n"

// streamHeader is the JSON header line following the magic.
type streamHeader struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Ops      int    `json:"ops"`
}

// DefaultRecordOps bounds a recording when the caller does not: long
// enough to span detector warmup plus a measurement window, small
// enough that the replay program stays compact.
const DefaultRecordOps = 4096

// Recorder captures a core's committed memory stream through
// pipeline.Core.SetMemHook. It records thread 0 only (per-thread
// programs are independent copies; one thread's stream is the
// workload's character) and stops itself at Max ops.
type Recorder struct {
	stream Stream
	max    int
}

// NewRecorder creates a recorder for up to max ops (DefaultRecordOps
// when max <= 0), labeled with the recorded workload spec and seed.
func NewRecorder(workload string, seed uint64, max int) *Recorder {
	if max <= 0 {
		max = DefaultRecordOps
	}
	return &Recorder{stream: Stream{Workload: workload, Seed: seed}, max: max}
}

// Attach installs the recorder on a core.
func (r *Recorder) Attach(c *pipeline.Core) {
	c.SetMemHook(func(tid int, store bool, addr, val uint64) {
		if tid != 0 || len(r.stream.Ops) >= r.max {
			return
		}
		r.stream.Ops = append(r.stream.Ops, MemOp{Store: store, Addr: addr, Val: val})
	})
}

// Full reports whether the recorder has reached its op bound.
func (r *Recorder) Full() bool { return len(r.stream.Ops) >= r.max }

// Stream returns the recorded stream.
func (r *Recorder) Stream() *Stream { return &r.stream }

// encodeOps renders the op sequence in the compact wire form: one
// flag byte, zigzag-varint address delta from the previous op, varint
// value. Addresses cluster, so deltas stay short.
func encodeOps(ops []MemOp) []byte {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	prev := uint64(0)
	for _, op := range ops {
		flag := byte(0)
		if op.Store {
			flag = 1
		}
		buf.WriteByte(flag)
		buf.Write(tmp[:binary.PutVarint(tmp[:], int64(op.Addr-prev))])
		buf.Write(tmp[:binary.PutUvarint(tmp[:], op.Val)])
		prev = op.Addr
	}
	return buf.Bytes()
}

// Hash returns the hex SHA-256 of the encoded op sequence — a
// base-independent fingerprint two streams can be compared by (the
// header, which carries the workload label, is excluded).
func (s *Stream) Hash() string {
	sum := sha256.Sum256(encodeOps(s.Ops))
	return hex.EncodeToString(sum[:])
}

// Write serializes the stream: magic, one JSON header line, then the
// encoded ops.
func (s *Stream) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(streamMagic); err != nil {
		return err
	}
	hdr, err := json.Marshal(streamHeader{Workload: s.Workload, Seed: s.Seed, Ops: len(s.Ops)})
	if err != nil {
		return err
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	bw.Write(encodeOps(s.Ops))
	return bw.Flush()
}

// WriteFile writes the stream artifact to path.
func (s *Stream) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadStream parses a stream artifact.
func ReadStream(r io.Reader) (*Stream, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(streamMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("stream: short magic: %w", err)
	}
	if string(magic) != streamMagic {
		return nil, fmt.Errorf("stream: bad magic %q (want %q)", magic, streamMagic)
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("stream: header: %w", err)
	}
	var hdr streamHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("stream: header: %w", err)
	}
	if hdr.Ops < 0 || hdr.Ops > 1<<24 {
		return nil, fmt.Errorf("stream: implausible op count %d", hdr.Ops)
	}
	// The header's count is a claim, not a size: reserve at most a
	// default recording and let append grow with the bytes that arrive.
	s := &Stream{Workload: hdr.Workload, Seed: hdr.Seed, Ops: make([]MemOp, 0, min(hdr.Ops, DefaultRecordOps))}
	prev := uint64(0)
	for i := 0; i < hdr.Ops; i++ {
		flag, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("stream: op %d: %w", i, err)
		}
		if flag > 1 {
			return nil, fmt.Errorf("stream: op %d: bad flag %d", i, flag)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("stream: op %d: addr: %w", i, err)
		}
		val, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("stream: op %d: val: %w", i, err)
		}
		addr := prev + uint64(delta)
		s.Ops = append(s.Ops, MemOp{Store: flag == 1, Addr: addr, Val: val})
		prev = addr
	}
	return s, nil
}

// ReadStreamFile parses the stream artifact at path.
func ReadStreamFile(path string) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadStream(f)
}

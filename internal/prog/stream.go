package prog

import (
	"encoding/binary"
	"sync"

	"faulthound/internal/isa"
)

// memStreams holds a program's recorded memory-operation streams, one
// per instruction count that VisitMemOps was asked for. It lives on the
// Program, so a stream is collected with its program.
type memStreams struct {
	mu  sync.Mutex
	byN map[uint64]*memStream
}

// memStream is the state of one instruction count's stream.
type memStream struct {
	requests  int  // VisitMemOps calls so far that found no recording
	recording bool // one of them is recording now
	// buf is the recorded stream, nil until the recording finishes. Per
	// operation it holds zigzag varints: the pc minus the previous
	// operation's pc, then the address minus the last address at that
	// pc and, for a store, the value minus the last value stored at
	// that pc. The instruction at pc says whether it is a load or a
	// store.
	buf []byte
}

// VisitMemOps calls visit for every load and store among the first n
// instructions the sequential interpreter executes from the program's
// entry, in order: its pc, whether it is a store, its address and, for
// a store, the stored value (0 for a load). The sequence ends early
// where the interpreter halts or faults. Atomics are not visited.
//
// The address is read from the registers after the instruction
// executes, so a load whose destination is its base register
// (LD rd, imm(rd)) reports the loaded value plus imm rather than its
// effective address. Detector warm-up has always been trained on this
// stream, and every committed result depends on it.
//
// The stream is a pure function of the program and n, so the program
// keeps a compact recording of it: the first request for n interprets,
// the second interprets and records, and every later one replays the
// recording, which yields exactly the same sequence. A request made
// while the recording is in flight interprets. VisitMemOps is safe for
// concurrent use.
func (p *Program) VisitMemOps(n uint64, visit func(pc uint64, store bool, addr, val uint64)) {
	s := &p.streams
	s.mu.Lock()
	if s.byN == nil {
		s.byN = make(map[uint64]*memStream)
	}
	st := s.byN[n]
	if st == nil {
		st = &memStream{}
		s.byN[n] = st
	}
	buf, record := st.buf, false
	if buf == nil {
		st.requests++
		record = st.requests >= 2 && !st.recording
		st.recording = st.recording || record
	}
	s.mu.Unlock()

	switch {
	case buf != nil:
		p.replayMemOps(buf, visit)
	case record:
		buf = p.recordMemOps(n, visit)
		s.mu.Lock()
		st.buf, st.recording = buf, false
		s.mu.Unlock()
	default:
		p.interpretMemOps(n, visit)
	}
}

// interpretMemOps runs the interpreter for n instructions and visits
// each load and store it executes.
func (p *Program) interpretMemOps(n uint64, visit func(pc uint64, store bool, addr, val uint64)) {
	it := NewInterp(p)
	for i := uint64(0); i < n; i++ {
		pc := it.PC
		if !it.Step() {
			return
		}
		switch in := p.Code[pc]; in.Op {
		case isa.LD:
			visit(pc, false, it.Regs[in.Rs1]+uint64(int64(in.Imm)), 0)
		case isa.ST:
			visit(pc, true, it.Regs[in.Rs1]+uint64(int64(in.Imm)), it.Regs[in.Rs2])
		}
	}
}

// recordMemOps is interpretMemOps that also returns the encoded stream
// (see memStream.buf).
func (p *Program) recordMemOps(n uint64, visit func(pc uint64, store bool, addr, val uint64)) []byte {
	var (
		buf    []byte
		prevPC uint64
		last   = make([]uint64, 2*len(p.Code)) // per pc: address, value
	)
	p.interpretMemOps(n, func(pc uint64, store bool, addr, val uint64) {
		buf = binary.AppendVarint(buf, int64(pc-prevPC))
		buf = binary.AppendVarint(buf, int64(addr-last[2*pc]))
		if store {
			buf = binary.AppendVarint(buf, int64(val-last[2*pc+1]))
			last[2*pc+1] = val
		}
		prevPC, last[2*pc] = pc, addr
		visit(pc, store, addr, val)
	})
	// The recording lives as long as the program: keep no spare
	// capacity.
	return append(make([]byte, 0, len(buf)), buf...)
}

// replayMemOps decodes a recorded stream and visits its operations.
func (p *Program) replayMemOps(buf []byte, visit func(pc uint64, store bool, addr, val uint64)) {
	var pc uint64
	last := make([]uint64, 2*len(p.Code))
	for off := 0; off < len(buf); {
		d, k := varint(buf, off)
		pc += uint64(d)
		off += k
		d, k = varint(buf, off)
		last[2*pc] += uint64(d)
		off += k
		if p.Code[pc].Op != isa.ST {
			visit(pc, false, last[2*pc], 0)
			continue
		}
		d, k = varint(buf, off)
		last[2*pc+1] += uint64(d)
		off += k
		visit(pc, true, last[2*pc], last[2*pc+1])
	}
}

// varint decodes the zigzag varint at buf[off:] and returns it with its
// length in bytes. Most deltas fit in one byte, so that case is inline.
func varint(buf []byte, off int) (int64, int) {
	if b := buf[off]; b < 0x80 {
		return int64(b>>1) ^ -int64(b&1), 1
	}
	return binary.Varint(buf[off:])
}

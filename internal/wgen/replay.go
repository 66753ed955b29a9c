package wgen

import (
	"fmt"

	"faulthound/internal/prog"
	"faulthound/internal/pspec"
)

// The replay generator re-feeds a recorded committed memory stream:
// every address and store value is baked into the program as an
// immediate, so the committed load/store address stream and store
// values are identical on every pass and across any worker count —
// the byte-identical-stream property differential detector tests need
// (RepTFD's replay idea, PAPERS.md). Load values match the recording
// exactly on the first pass (the data image holds each address's
// first-loaded value) and stay self-consistent afterwards.

func init() {
	register(Generator{
		Name: "replay",
		Help: "re-feed a recorded committed load/store stream",
		Params: []pspec.Param{
			{Name: "trace", Kind: pspec.Str, Default: "-",
				Help: "stream artifact path (required; from fhsim -record)"},
		},
		Build: buildReplay,
	})
}

func buildReplay(sp Spec, v pspec.Values) (Workload, error) {
	path := v.Str("trace")
	if !v.Explicit("trace") || path == "-" {
		return Workload{}, badSpec(sp, "replay needs trace=<path> (record one with fhsim -record)")
	}
	s, err := ReadStreamFile(path)
	if err != nil {
		return Workload{}, badSpec(sp, err.Error())
	}
	w, err := FromStream(s)
	if err != nil {
		return Workload{}, err
	}
	w.Spec = sp
	return w, nil
}

// replaySegMax bounds the replayed footprint (offsets are int32 and
// the data image is materialized per thread).
const replaySegMax = 64 << 20

// FromStream builds the replay workload for an in-memory stream —
// what buildReplay uses after reading the artifact, and what
// differential tests call directly.
func FromStream(s *Stream) (Workload, error) {
	if len(s.Ops) == 0 {
		return Workload{}, fmt.Errorf("wgen: replay of an empty stream")
	}
	lo, hi := s.Ops[0].Addr, s.Ops[0].Addr
	for _, op := range s.Ops {
		if op.Addr%8 != 0 {
			return Workload{}, fmt.Errorf("wgen: replay: unaligned address %#x", op.Addr)
		}
		if op.Addr < lo {
			lo = op.Addr
		}
		if op.Addr > hi {
			hi = op.Addr
		}
	}
	// Bound hi-lo before adding the last word: hi+8-lo wraps to 0 when
	// the stream touches both ends of the address space.
	if hi-lo > replaySegMax-8 {
		return Workload{}, fmt.Errorf("wgen: replay footprint [%#x, %#x] exceeds %d bytes", lo, hi, uint64(replaySegMax))
	}
	span := hi + 8 - lo
	ops := append([]MemOp(nil), s.Ops...)
	return Workload{
		Spec:     Spec{Name: "replay"},
		SegBytes: span,
		Build: func(base, _ uint64) *prog.Program {
			return replayProgram(ops, lo, span, base)
		},
	}, nil
}

func replayProgram(ops []MemOp, lo, span, base uint64) *prog.Program {
	b := prog.NewBuilderAt("replay", base, span)
	// Data image: each address's first access, when it is a load, read
	// that value from the initial image in the recorded run.
	seen := map[uint64]bool{}
	for _, op := range ops {
		if !seen[op.Addr] {
			seen[op.Addr] = true
			if !op.Store {
				b.Word(op.Addr-lo, op.Val)
			}
		}
	}
	// r2 base, r4 load sink, r5 store value.
	b.MovU64(2, base)
	b.Label("loop")
	for _, op := range ops {
		off := int32(op.Addr - lo)
		if op.Store {
			b.MovU64(5, op.Val)
			b.St(2, off, 5)
		} else {
			b.Ld(4, 2, off)
		}
	}
	b.Jmp("loop")
	return b.MustBuild()
}

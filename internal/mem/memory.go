// Package mem provides the architectural memory image and the timing
// model of the on-chip memory hierarchy (L1 I/D, unified L2, ITLB/DTLB)
// with the Table-2 geometry of the paper. The caches model timing and
// access counts only; architectural data lives in Memory.
package mem

import (
	"fmt"
	"maps"
)

// Memory is the flat architectural data memory: a single mapped segment
// of 64-bit words. Accesses outside the segment or unaligned accesses
// return a translation error, which the pipeline turns into the paper's
// "noisy" exception category.
type Memory struct {
	base  uint64
	size  uint64
	words map[uint64]uint64
	// hash is maintained incrementally on every write: the sum of
	// mix(addr, value) over all nonzero words (commutative, so updates
	// are O(1)).
	hash uint64
	// parent makes this memory a copy-on-write overlay: reads fall
	// through to parent for words not in the local dirty map, writes
	// land in the local map only. nil for an ordinary (root) memory.
	// While an overlay is live its parent must not be written — the
	// tandem fault runner guarantees this by never stepping the golden
	// core after Prepare. Parent reads are lock-free, so any number of
	// overlays may run concurrently over one immutable base.
	parent *Memory
}

// NewMemory creates a memory with one mapped segment [base, base+size)
// initialized from image (which must lie inside the segment).
func NewMemory(base, size uint64, image map[uint64]uint64) *Memory {
	m := &Memory{base: base, size: size, words: make(map[uint64]uint64, len(image))}
	for a, v := range image {
		m.words[a] = v
		m.hash += mix(a, v)
	}
	return m
}

// mix hashes one (addr, value) pair; mix(a, 0) is defined as 0 so that
// never-written and explicitly-zeroed words hash identically.
func mix(a, v uint64) uint64 {
	if v == 0 {
		return 0
	}
	x := a*0x9e3779b97f4a7c15 ^ v
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Base returns the segment base address.
func (m *Memory) Base() uint64 { return m.base }

// Size returns the segment size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Mapped reports whether an 8-byte access at addr is legal.
func (m *Memory) Mapped(addr uint64) bool {
	return addr%8 == 0 && addr >= m.base && addr+8 <= m.base+m.size
}

// lookup returns the effective word at addr, walking the overlay chain
// (the nearest dirty copy wins; a word dirty nowhere reads as zero).
func (m *Memory) lookup(addr uint64) uint64 {
	for cur := m; cur != nil; cur = cur.parent {
		if v, ok := cur.words[addr]; ok {
			return v
		}
	}
	return 0
}

// Read returns the word at addr.
func (m *Memory) Read(addr uint64) (uint64, error) {
	if !m.Mapped(addr) {
		return 0, fmt.Errorf("mem: translation exception reading %#x", addr)
	}
	if m.parent == nil {
		return m.words[addr], nil
	}
	return m.lookup(addr), nil
}

// Write stores v at addr. On an overlay the write shadows the parent's
// word without touching it.
func (m *Memory) Write(addr, v uint64) error {
	if !m.Mapped(addr) {
		return fmt.Errorf("mem: translation exception writing %#x", addr)
	}
	var old uint64
	if m.parent == nil {
		old = m.words[addr]
	} else {
		old = m.lookup(addr)
	}
	m.hash += mix(addr, v) - mix(addr, old)
	m.words[addr] = v
	return nil
}

// Clone returns an independent deep copy (used by the tandem fault
// injection runner to snapshot state). Cloning an overlay flattens the
// chain: the copy is a root memory with the overlay's effective
// contents and hash.
func (m *Memory) Clone() *Memory {
	w := make(map[uint64]uint64, m.Footprint())
	m.flattenInto(w)
	return &Memory{base: m.base, size: m.size, words: w, hash: m.hash}
}

// CloneLayer returns an independent copy of m that shares m's parent:
// an overlay's copy holds its own copy of the overlay's dirty words
// over the same parent, so it relies on that parent staying unwritten
// exactly as m does. A root memory is copied in full (Clone). The
// fault runner takes its golden checkpoints this way off a trace that
// runs on an overlay over the frozen golden image, so a checkpoint
// keeps only the words the trace wrote since the spread start, never a
// copy of the whole image.
func (m *Memory) CloneLayer() *Memory {
	if m.parent == nil {
		return m.Clone()
	}
	return &Memory{base: m.base, size: m.size, words: maps.Clone(m.words), hash: m.hash, parent: m.parent}
}

// flattenInto writes the chain's effective contents into w, oldest
// layer first so nearer dirty copies win.
func (m *Memory) flattenInto(w map[uint64]uint64) {
	if m.parent != nil {
		m.parent.flattenInto(w)
	}
	for a, v := range m.words {
		w[a] = v
	}
}

// Footprint returns an upper bound on the number of distinct words the
// chain holds (layers may shadow each other, so the effective count can
// be lower).
func (m *Memory) Footprint() int {
	n := 0
	for cur := m; cur != nil; cur = cur.parent {
		n += len(cur.words)
	}
	return n
}

// OverlayInto returns a copy-on-write view of m: reads fall through to
// m, writes stay in the overlay's private dirty map, and the
// incremental hash carries over so Hash stays O(1). An overlay snapshot
// replaces a full Clone in the per-injection hot path — cost is one
// small map instead of a copy of the whole image. A dst that is itself
// an overlay (of m or of any other base) is emptied and re-pointed at
// m, keeping its dirty map's capacity; a nil or root dst gets a new
// overlay, and a root dst is left untouched. m must not be written
// while the overlay is in use; m may be read concurrently by any number
// of overlays (each overlay itself is single-goroutine, like Memory).
func (m *Memory) OverlayInto(dst *Memory) *Memory {
	if dst == nil || dst.parent == nil {
		dst = &Memory{words: make(map[uint64]uint64)}
	} else {
		clear(dst.words)
	}
	dst.base, dst.size, dst.hash, dst.parent = m.base, m.size, m.hash, m
	return dst
}

// Hash returns a 64-bit fingerprint of the memory contents for tandem
// state comparison. It is maintained incrementally, so this is O(1).
func (m *Memory) Hash() uint64 { return m.hash }

// Equal reports whether two memories have identical effective contents
// (treating never-written words as zero), regardless of how either
// side's overlay chain layers them.
func (m *Memory) Equal(o *Memory) bool {
	if m.base != o.base || m.size != o.size {
		return false
	}
	for cur := m; cur != nil; cur = cur.parent {
		for a := range cur.words {
			if m.lookup(a) != o.lookup(a) {
				return false
			}
		}
	}
	for cur := o; cur != nil; cur = cur.parent {
		for a := range cur.words {
			if m.lookup(a) != o.lookup(a) {
				return false
			}
		}
	}
	return true
}

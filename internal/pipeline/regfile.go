package pipeline

import "faulthound/internal/isa"

// regFile is the unified physical register file plus free lists. Values
// are architectural: a soft-fault injection flips a bit in val and the
// flip is visible to every subsequent read, while consumers that
// already read (nearby, bypassed consumers) are unaffected — exactly
// the register-file masking behavior Section 3.5 of the paper relies
// on.
type regFile struct {
	val    []uint64
	ready  []bool
	numInt int
	// free lists as LIFO stacks
	freeInt []physID
	freeFP  []physID
}

func newRegFile(numInt, numFP int) *regFile {
	rf := &regFile{
		val:    make([]uint64, numInt+numFP),
		ready:  make([]bool, numInt+numFP),
		numInt: numInt,
	}
	for i := range rf.ready {
		rf.ready[i] = true
	}
	return rf
}

// isFree reports whether p is on its class's free list.
func (rf *regFile) isFree(p physID) bool {
	free := rf.freeInt
	if rf.isFP(p) {
		free = rf.freeFP
	}
	for _, f := range free {
		if f == p {
			return true
		}
	}
	return false
}

// isFP reports whether p is an FP physical register.
func (rf *regFile) isFP(p physID) bool { return int(p) >= rf.numInt }

// alloc takes a free physical register of the class of arch register r.
// It returns physNone when the class's free list is empty (dispatch
// stalls).
func (rf *regFile) alloc(r isa.Reg) physID {
	if r.IsFP() {
		if n := len(rf.freeFP); n > 0 {
			p := rf.freeFP[n-1]
			rf.freeFP = rf.freeFP[:n-1]
			rf.ready[p] = false
			return p
		}
		return physNone
	}
	if n := len(rf.freeInt); n > 0 {
		p := rf.freeInt[n-1]
		rf.freeInt = rf.freeInt[:n-1]
		rf.ready[p] = false
		return p
	}
	return physNone
}

// canAlloc reports whether alloc(r) would find a free register.
func (rf *regFile) canAlloc(r isa.Reg) bool {
	if r.IsFP() {
		return len(rf.freeFP) > 0
	}
	return len(rf.freeInt) > 0
}

// free returns p to its free list. Freeing physNone or the shared zero
// register (phys 0) is a no-op.
func (rf *regFile) free(p physID) {
	if p == physNone || p == 0 {
		return
	}
	rf.ready[p] = true
	if rf.isFP(p) {
		rf.freeFP = append(rf.freeFP, p)
	} else {
		rf.freeInt = append(rf.freeInt, p)
	}
}

// write stores v and marks p ready. Writes to the zero register are
// discarded.
func (rf *regFile) write(p physID, v uint64) {
	if p == physNone {
		return
	}
	if p != 0 {
		rf.val[p] = v
	}
	rf.ready[p] = true
}

// read returns the current value of p.
func (rf *regFile) read(p physID) uint64 {
	if p == physNone {
		return 0
	}
	return rf.val[p]
}

// cloneInto returns a deep copy of rf in d, reusing d's storage (the
// snapshot-arena path), or in a new register file when d is nil.
func (rf *regFile) cloneInto(d *regFile) *regFile {
	if d == nil {
		d = &regFile{}
	}
	d.val = append(d.val[:0], rf.val...)
	d.ready = append(d.ready[:0], rf.ready...)
	d.numInt = rf.numInt
	d.freeInt = append(d.freeInt[:0], rf.freeInt...)
	d.freeFP = append(d.freeFP[:0], rf.freeFP...)
	return d
}

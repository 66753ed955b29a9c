package pipeline

import "faulthound/internal/isa"

// NamedRegs returns thread tid's named-register mask.
func (c *Core) NamedRegs(tid int) uint64 { return c.threads[tid].named }

// ArchMapping returns the physical register thread tid's architectural
// RAT maps r to.
func (c *Core) ArchMapping(tid int, r isa.Reg) uint16 { return uint16(c.threads[tid].aRAT[r]) }

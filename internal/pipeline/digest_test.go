package pipeline_test

import (
	"testing"

	"faulthound/internal/isa"
	"faulthound/internal/pipeline"
	"faulthound/internal/prog"
	"faulthound/internal/workload"
)

// TestDigestUnnamedRegisters: the reconvergence digest treats the
// rename entries of registers a program never names, and a physical
// register only they map, as dead state. On a warmed bzip2 core, a
// clone with a flip in such a register or such a rename entry still
// matches the golden digest; the same flips on a named register do
// not.
func TestDigestUnnamedRegisters(t *testing.T) {
	bm, err := workload.Get("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := pipeline.New(pipeline.DefaultConfig(1), []*prog.Program{bm.Build(prog.DefaultDataBase, 3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	golden.Run(3000)
	d := golden.CaptureDigest()

	var unnamed, named isa.Reg
	for r := isa.Reg(1); r < isa.NumArchRegs; r++ {
		switch {
		case golden.NamedRegs(0)>>r&1 == 0 && unnamed == 0:
			unnamed = r
		case golden.NamedRegs(0)>>r&1 != 0 && named == 0:
			named = r
		}
	}
	if unnamed == 0 || named == 0 {
		t.Fatalf("bzip2 names mask %#x: want a named and an unnamed register", golden.NamedRegs(0))
	}

	for _, tc := range []struct {
		name  string
		flip  func(c *pipeline.Core) bool
		match bool
	}{
		{"no flip", func(*pipeline.Core) bool { return true }, true},
		{"regfile, unnamed " + unnamed.String(), func(c *pipeline.Core) bool {
			return c.FlipRegisterBit(c.ArchMapping(0, unnamed), 5)
		}, true},
		{"regfile, named " + named.String(), func(c *pipeline.Core) bool {
			return c.FlipRegisterBit(c.ArchMapping(0, named), 5)
		}, false},
		{"rename, unnamed " + unnamed.String(), func(c *pipeline.Core) bool {
			return c.FlipRATBit(0, unnamed, 1)
		}, true},
		{"rename, named " + named.String(), func(c *pipeline.Core) bool {
			return c.FlipRATBit(0, named, 1)
		}, false},
	} {
		c := golden.Clone()
		if !tc.flip(c) {
			t.Fatalf("%s: flip not applied", tc.name)
		}
		if got := c.MatchesDigest(&d); got != tc.match {
			t.Errorf("%s: clone matches the golden digest: %v, want %v", tc.name, got, tc.match)
		}
	}
}

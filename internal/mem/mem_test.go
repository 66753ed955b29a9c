package mem

import (
	"sync"
	"testing"
	"testing/quick"

	"faulthound/internal/stats"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory(0x1000, 0x100, map[uint64]uint64{0x1008: 7})
	v, err := m.Read(0x1008)
	if err != nil || v != 7 {
		t.Fatalf("Read = %d, %v", v, err)
	}
	if err := m.Write(0x1010, 9); err != nil {
		t.Fatal(err)
	}
	v, _ = m.Read(0x1010)
	if v != 9 {
		t.Fatalf("Read after Write = %d", v)
	}
	// Never-written word reads as zero.
	v, err = m.Read(0x1018)
	if err != nil || v != 0 {
		t.Fatalf("unwritten word = %d, %v", v, err)
	}
}

func TestMemoryBounds(t *testing.T) {
	m := NewMemory(0x1000, 0x100, nil)
	cases := []uint64{0x0ff8, 0x1100, 0x10fc, 0x1001}
	for _, a := range cases {
		if _, err := m.Read(a); err == nil {
			t.Errorf("Read(%#x) should fail", a)
		}
		if err := m.Write(a, 1); err == nil {
			t.Errorf("Write(%#x) should fail", a)
		}
	}
	// Last mapped word is fine.
	if err := m.Write(0x10f8, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryCloneIndependence(t *testing.T) {
	m := NewMemory(0x1000, 0x100, nil)
	m.Write(0x1000, 1)
	c := m.Clone()
	c.Write(0x1000, 2)
	v, _ := m.Read(0x1000)
	if v != 1 {
		t.Fatal("clone write leaked into original")
	}
	if !m.Mapped(0x1000) || !c.Mapped(0x1000) {
		t.Fatal("mapping lost in clone")
	}
}

func TestMemoryEqualAndHash(t *testing.T) {
	a := NewMemory(0x1000, 0x100, nil)
	b := NewMemory(0x1000, 0x100, nil)
	a.Write(0x1000, 5)
	b.Write(0x1000, 5)
	if !a.Equal(b) || a.Hash() != b.Hash() {
		t.Fatal("equal memories should match")
	}
	b.Write(0x1008, 1)
	if a.Equal(b) || a.Hash() == b.Hash() {
		t.Fatal("differing memories should not match")
	}
	// Writing an explicit zero equals never writing.
	b.Write(0x1008, 0)
	if !a.Equal(b) || a.Hash() != b.Hash() {
		t.Fatal("explicit zero should equal unwritten")
	}
}

func TestCacheHitsAndMisses(t *testing.T) {
	c := NewCache("t", 1024, 2, 64) // 8 sets, 2 ways
	if c.Access(0) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0) || !c.Access(8) {
		t.Fatal("same line should hit")
	}
	if c.Access(64) {
		t.Fatal("next line should miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v", c.MissRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("t", 1024, 2, 64) // 8 sets: set = line % 8
	// Three lines mapping to set 0: lines 0, 8, 16 -> addresses 0, 512, 1024.
	c.Access(0)
	c.Access(512)
	c.Access(0)    // make line 0 MRU
	c.Access(1024) // evicts line at 512 (LRU)
	if !c.Access(0) {
		t.Fatal("line 0 should still be resident")
	}
	if c.Access(512) {
		t.Fatal("line 512 should have been evicted")
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCache("t", 0, 2, 64) },
		func() { NewCache("t", 1000, 2, 64) }, // not divisible
		func() { NewCache("t", 96*2, 2, 96) }, // non-power-of-two line
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTLBBasics(t *testing.T) {
	tl := NewTLB(2, 4096)
	if tl.Access(0) {
		t.Fatal("cold TLB access should miss")
	}
	if !tl.Access(100) {
		t.Fatal("same page should hit")
	}
	tl.Access(4096)     // page 1
	tl.Access(2 * 4096) // page 2, evicts page 0 (LRU)
	if !tl.Access(4096) {
		t.Fatal("page 1 should still be resident")
	}
	if tl.Access(0) {
		t.Fatal("page 0 should have been evicted")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg)
	// Cold access: TLB miss + L1 miss + L2 miss + memory.
	lat, hit := h.AccessD(0x10000, false)
	want := cfg.L1DLatency + cfg.TLBMissCycles + cfg.L2Latency + cfg.MemLatency
	if hit || lat != want {
		t.Fatalf("cold access: lat=%d hit=%v, want lat=%d", lat, hit, want)
	}
	// Warm access: L1 hit.
	lat, hit = h.AccessD(0x10000, false)
	if !hit || lat != cfg.L1DLatency {
		t.Fatalf("warm access: lat=%d hit=%v", lat, hit)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg)
	h.AccessD(0x10000, false)
	// Evict from the 32KB 2-way L1 by touching two more lines in the
	// same L1 set (sets=256, so stride 256*64 = 16KB).
	h.AccessD(0x10000+16384, false)
	h.AccessD(0x10000+2*16384, false)
	// 0x10000 now misses L1 but hits the 2MB L2.
	lat, hit := h.AccessD(0x10000, false)
	if hit {
		t.Fatal("expected L1 miss")
	}
	if lat != cfg.L1DLatency+cfg.L2Latency {
		t.Fatalf("L2 hit latency = %d, want %d", lat, cfg.L1DLatency+cfg.L2Latency)
	}
}

func TestHierarchyInstructionPath(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg)
	cold := h.AccessI(0)
	warm := h.AccessI(0)
	if warm >= cold {
		t.Fatalf("warm fetch (%d) should be faster than cold (%d)", warm, cold)
	}
	if warm != cfg.L1ILatency {
		t.Fatalf("warm fetch latency = %d", warm)
	}
	s := h.Stats()
	if s.L1IAccesses != 2 || s.L1IMisses != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestHierarchyCloneIndependence(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.AccessD(0x10000, false)
	c := h.CloneInto(nil)
	// Accessing through the clone must not warm the original.
	c.AccessD(0x20000, false)
	if h.Stats().L1DAccesses != 1 {
		t.Fatal("clone access leaked into original stats")
	}
	// The clone retains the original's warm line.
	if _, hit := c.AccessD(0x10000, false); !hit {
		t.Fatal("clone should retain warmed lines")
	}
}

// Property: cache conserves accesses = hits + misses, and repeated
// access to the same address always hits after the first.
func TestCacheRepeatHitProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := NewCache("t", 4096, 4, 64)
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Access(uint64(a)) { // immediate re-access must hit
				return false
			}
		}
		return c.Accesses() == uint64(2*len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: memory round-trips arbitrary values at mapped addresses.
func TestMemoryRoundTripProperty(t *testing.T) {
	f := func(off16 uint16, v uint64) bool {
		m := NewMemory(0x10000, 1<<20, nil)
		addr := 0x10000 + uint64(off16)*8
		if err := m.Write(addr, v); err != nil {
			return false
		}
		got, err := m.Read(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOverlayIndependence(t *testing.T) {
	base := NewMemory(0x1000, 0x100, map[uint64]uint64{0x1000: 1, 0x1008: 2})
	ov := base.OverlayInto(nil)
	// Overlay starts identical to the base.
	if !ov.Equal(base) || ov.Hash() != base.Hash() {
		t.Fatal("fresh overlay should equal its base")
	}
	if v, _ := ov.Read(0x1008); v != 2 {
		t.Fatalf("overlay read-through = %d, want 2", v)
	}
	// Writes through the overlay never reach the base.
	ov.Write(0x1000, 99)
	ov.Write(0x1010, 7)
	if v, _ := base.Read(0x1000); v != 1 {
		t.Fatal("overlay write leaked into base")
	}
	if v, _ := base.Read(0x1010); v != 0 {
		t.Fatal("overlay write to fresh word leaked into base")
	}
	if v, _ := ov.Read(0x1000); v != 99 {
		t.Fatal("overlay lost its own write")
	}
	if ov.Equal(base) || ov.Hash() == base.Hash() {
		t.Fatal("diverged overlay should not equal base")
	}
	// Base writes made before the overlay diverges on an address are
	// visible through it; the overlay's dirty words shadow the rest.
	// (The fault runner never does this — the golden base is immutable
	// while overlays are live — but lookup semantics must still hold.)
	// Rewriting the shadowed word in the overlay back to the base value
	// restores equality.
	ov.Write(0x1000, 1)
	ov.Write(0x1010, 0)
	if !ov.Equal(base) || ov.Hash() != base.Hash() {
		t.Fatal("overlay rewritten to base values should equal base")
	}
}

func TestOverlayCloneMatchesEagerClone(t *testing.T) {
	base := NewMemory(0x1000, 0x1000, map[uint64]uint64{0x1000: 3, 0x1100: 4})
	eager := base.Clone()
	ov := base.OverlayInto(nil)
	// Apply the same write sequence to the eager clone and the overlay.
	writes := []struct{ a, v uint64 }{
		{0x1000, 10}, {0x1200, 11}, {0x1100, 0}, {0x1000, 3}, {0x1ff8, 5},
	}
	for _, w := range writes {
		if err := eager.Write(w.a, w.v); err != nil {
			t.Fatal(err)
		}
		if err := ov.Write(w.a, w.v); err != nil {
			t.Fatal(err)
		}
	}
	if ov.Hash() != eager.Hash() {
		t.Fatalf("overlay hash %#x != eager clone hash %#x", ov.Hash(), eager.Hash())
	}
	if !ov.Equal(eager) || !eager.Equal(ov) {
		t.Fatal("overlay and eager clone should be Equal (both directions)")
	}
	// Flattening the overlay produces a root memory with the same
	// contents and hash.
	flat := ov.Clone()
	if flat.parent != nil {
		t.Fatal("Clone of an overlay should be a root memory")
	}
	if flat.Hash() != eager.Hash() || !flat.Equal(eager) {
		t.Fatal("flattened overlay should equal eager clone")
	}
}

// TestOverlayReset: OverlayInto on an overlay empties it and re-points
// it at the new base, in place, whether the base is the same or
// another; a root destination is never emptied, and gets a new overlay.
func TestOverlayReset(t *testing.T) {
	base := NewMemory(0x1000, 0x100, map[uint64]uint64{0x1000: 1})
	ov := base.OverlayInto(nil)
	ov.Write(0x1000, 2)
	ov.Write(0x1008, 3)
	if got := base.OverlayInto(ov); got != ov {
		t.Fatal("an overlay destination was not reused")
	}
	if !ov.Equal(base) || ov.Hash() != base.Hash() {
		t.Fatal("reuse should restore the overlay to its base")
	}
	if len(ov.words) != 0 || ov.parent != base {
		t.Fatal("reuse should empty the dirty map and keep the base")
	}
	other := NewMemory(0x2000, 0x200, map[uint64]uint64{0x2008: 9})
	ov.Write(0x1010, 4)
	if got := other.OverlayInto(ov); got != ov || ov.parent != other || len(ov.words) != 0 {
		t.Fatal("reuse onto another base should rebase the overlay in place")
	}
	if !ov.Equal(other) || ov.Hash() != other.Hash() || ov.Base() != other.Base() || ov.Size() != other.Size() {
		t.Fatal("a rebased overlay should read as its new base")
	}
	hash := other.Hash()
	if got := base.OverlayInto(other); got == other || got.parent != base || other.parent != nil || other.Hash() != hash || len(other.words) != 1 {
		t.Fatal("a root destination should be left alone and a new overlay returned")
	}
}

// Many goroutines each run a private overlay over one shared immutable
// base — the campaign worker regime. Run with -race to check that
// read-through lookups are safe under concurrency.
func TestOverlayConcurrentOverSharedBase(t *testing.T) {
	image := make(map[uint64]uint64)
	for i := uint64(0); i < 512; i++ {
		image[0x10000+i*8] = i * 3
	}
	base := NewMemory(0x10000, 1<<20, image)
	wantHash := base.Hash()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ov := base.OverlayInto(nil)
			for iter := 0; iter < 4; iter++ {
				for i := uint64(0); i < 512; i++ {
					a := 0x10000 + i*8
					v, err := ov.Read(a)
					if err != nil || (iter == 0 && v != i*3) {
						t.Errorf("g%d read %#x = %d, %v", g, a, v, err)
						return
					}
					ov.Write(a, v+uint64(g)+1)
				}
				ov = base.OverlayInto(ov)
			}
			if ov.Hash() != wantHash || !ov.Equal(base) {
				t.Errorf("g%d: overlay diverged from base after reuse", g)
			}
		}(g)
	}
	wg.Wait()
	if base.Hash() != wantHash {
		t.Fatal("base hash changed under concurrent overlays")
	}
}

// Property: an overlay and an eager clone given the same random write
// sequence agree on Hash and Equal.
func TestOverlayEquivalenceProperty(t *testing.T) {
	f := func(offs []uint16, vals []uint64) bool {
		base := NewMemory(0x10000, 1<<20, map[uint64]uint64{0x10000: 42})
		eager := base.Clone()
		ov := base.OverlayInto(nil)
		n := len(offs)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			a := 0x10000 + uint64(offs[i])*8
			eager.Write(a, vals[i])
			ov.Write(a, vals[i])
		}
		return ov.Hash() == eager.Hash() && ov.Equal(eager) && eager.Equal(ov)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCloneLayer: a golden checkpoint is CloneLayer of a trace that
// runs on an overlay over the golden image. Over words the trace
// overwrote, added and zeroed, the checkpoint keeps only the trace's
// own words over the shared base, equals the flat clone with the same
// hash however the trace moves on, and an overlay over it reads as one
// over the flat clone does. A root memory's CloneLayer is a full copy.
func TestCloneLayer(t *testing.T) {
	const lo, size = 0x1000, 0x200
	base := NewMemory(lo, size, map[uint64]uint64{0x1000: 1, 0x1008: 2, 0x1010: 3})
	trace := base.OverlayInto(nil)
	trace.Write(0x1000, 10) // overwritten
	trace.Write(0x1100, 11) // new
	trace.Write(0x1008, 0)  // zeroed
	ck, flat := trace.CloneLayer(), trace.Clone()
	if ck.parent != base || len(ck.words) != 3 {
		t.Fatalf("checkpoint holds %d words over %p, want the trace's 3 over the base %p", len(ck.words), ck.parent, base)
	}
	trace.Write(0x1000, 99)
	trace.Write(0x1010, 0)
	if !ck.Equal(flat) || !flat.Equal(ck) || ck.Hash() != flat.Hash() {
		t.Fatal("checkpoint differs from the flat clone")
	}
	a, b := ck.OverlayInto(nil), flat.OverlayInto(nil)
	for _, w := range []struct{ a, v uint64 }{{0x1000, 5}, {0x1008, 6}, {0x1010, 0}, {0x1180, 7}} {
		a.Write(w.a, w.v)
		b.Write(w.a, w.v)
	}
	for addr := uint64(lo); addr < lo+size; addr += 8 {
		va, _ := a.Read(addr)
		vb, _ := b.Read(addr)
		if va != vb {
			t.Fatalf("overlays read %#x = %d over the checkpoint, %d over the flat clone", addr, va, vb)
		}
	}
	if a.Hash() != b.Hash() {
		t.Fatal("overlays over the checkpoint and the flat clone hash differently")
	}
	if r := base.CloneLayer(); r.parent != nil || !r.Equal(base) || r.Hash() != base.Hash() {
		t.Fatal("CloneLayer of a root memory is not a full copy")
	}
}

// TestFrozenCacheRestore: a cache frozen against a base (SetBaseline)
// keeps only its difference from the base, yet restores line for line
// what its unfrozen copy holds, on every CloneInto path: into a fresh
// cache (flat: the base with the delta written over it), into a
// destination last restored from an origin with the same base (its
// journal undone, the delta applied), again after that destination
// ran, when switching between two origins, and after the journal
// overflowed. CloneInto(nil) materializes the same.
func TestFrozenCacheRestore(t *testing.T) {
	rng := stats.NewRNG(7)
	access := func(c *Cache, n int) {
		for i := 0; i < n; i++ {
			c.Access(rng.Uint64n(1<<18) &^ 63)
		}
	}
	for trial := 0; trial < 30; trial++ {
		base := NewCache("l2", 64<<10, 4, 64) // 1024 lines
		access(base, 3000)
		base.SetBaseline(base)
		if base.tags == nil {
			t.Fatal("a self-baselined cache dropped its tag store")
		}
		// freeze returns an origin diverged from base and frozen
		// against it, with an unfrozen copy of it.
		freeze := func() (frozen, want *Cache) {
			frozen = base.CloneInto(nil)
			access(frozen, rng.Intn(2000))
			want = frozen.CloneInto(nil)
			frozen.SetBaseline(base)
			if frozen.tags != nil || frozen.valid != nil || frozen.age != nil {
				t.Fatal("a frozen cache kept its tag store")
			}
			return frozen, want
		}
		a, wantA := freeze()
		b, wantB := freeze()
		check := func(path string, got, want *Cache) {
			t.Helper()
			if got.stamp != want.stamp || got.Hits != want.Hits || got.Misses != want.Misses {
				t.Fatalf("trial %d, %s: counters differ", trial, path)
			}
			for i := range want.tags {
				if got.tags[i] != want.tags[i] || got.valid[i] != want.valid[i] || got.age[i] != want.age[i] {
					t.Fatalf("trial %d, %s: line %d differs from the unfrozen copy", trial, path, i)
				}
			}
		}

		d := &Cache{}
		a.CloneInto(d)
		check("fresh", d, wantA)
		b.CloneInto(d)
		check("switch", d, wantB)
		access(d, rng.Intn(2000))
		b.CloneInto(d)
		check("rerun", d, wantB)
		a.CloneInto(d)
		check("switch back", d, wantA)

		access(d, maxCacheJournal+1)
		if !d.jovf {
			t.Fatal("journal did not overflow")
		}
		b.CloneInto(d)
		check("overflow", d, wantB)
		a.CloneInto(d)
		check("after overflow", d, wantA)

		check("Clone", a.CloneInto(nil), wantA)
	}
}

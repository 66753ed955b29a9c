package mem

// Cache is a set-associative, LRU, timing-only cache model: it tracks
// tags to classify hits and misses but holds no data (architectural data
// lives in Memory). Writes allocate, modeling a write-back,
// write-allocate cache.
type Cache struct {
	name     string
	sets     int
	ways     int
	lineBits uint
	// tags[set*ways+way]; valid[..]; lru holds per-set ascending age
	// order (lru[set*ways] is the LRU way index).
	tags  []uint64
	valid []bool
	age   []uint64 // per-line last-access stamp
	stamp uint64

	Hits   uint64
	Misses uint64

	// Delta-clone support (SetBaseline). base is a frozen cache every
	// fork origin shares; delta lists the lines where this (frozen)
	// cache differs from base and lines holds their contents; journal
	// lists the lines mutated since the last CloneInto restore. A
	// restore from an origin sharing the same base then touches
	// |journal|+|delta| lines instead of the whole tag store — for the
	// L2 that is a few hundred lines versus half a megabyte. A frozen
	// cache other than its own base keeps only delta and lines: its
	// tags, valid and age are nil. nil base disables all of it.
	base    *Cache
	delta   []int32
	lines   []cacheLine
	journal []int32
	jovf    bool // journal overflowed; next CloneInto copies in full
}

// cacheLine is one line's state, as a frozen cache keeps its delta.
type cacheLine struct {
	tag, age uint64
	valid    bool
}

// maxCacheJournal caps the mutation journal: a window that touches more
// lines than this falls back to a flat copy on the next restore.
const maxCacheJournal = 4096

// NewCache creates a cache of sizeBytes with the given associativity and
// line size (both powers of two).
func NewCache(name string, sizeBytes, ways, lineBytes int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("mem: non-positive cache geometry")
	}
	if sizeBytes%(ways*lineBytes) != 0 {
		panic("mem: cache size not divisible by ways*line")
	}
	sets := sizeBytes / (ways * lineBytes)
	if sets&(sets-1) != 0 || lineBytes&(lineBytes-1) != 0 {
		panic("mem: sets and line size must be powers of two")
	}
	lb := uint(0)
	for 1<<lb < lineBytes {
		lb++
	}
	return &Cache{
		name:     name,
		sets:     sets,
		ways:     ways,
		lineBits: lb,
		tags:     make([]uint64, sets*ways),
		valid:    make([]bool, sets*ways),
		age:      make([]uint64, sets*ways),
	}
}

// Access looks up addr, updating LRU state, and reports whether it hit.
// On a miss the line is allocated, evicting the LRU way.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	set := int(line % uint64(c.sets))
	tag := line / uint64(c.sets)
	c.stamp++
	first := set * c.ways
	victim, victimAge := first, c.age[first]
	for w := 0; w < c.ways; w++ {
		i := first + w
		if c.valid[i] && c.tags[i] == tag {
			c.age[i] = c.stamp
			c.record(i)
			c.Hits++
			return true
		}
		if !c.valid[i] {
			victim, victimAge = i, 0
		} else if c.age[i] < victimAge {
			victim, victimAge = i, c.age[i]
		}
	}
	c.Misses++
	c.tags[victim] = tag
	c.valid[victim] = true
	c.age[victim] = c.stamp
	c.record(victim)
	return false
}

// record journals a mutated line index for the delta-clone restore.
func (c *Cache) record(i int) {
	if c.base == nil {
		return
	}
	if len(c.journal) < maxCacheJournal {
		c.journal = append(c.journal, int32(i))
	} else {
		c.jovf = true
	}
}

// Accesses returns the total access count.
func (c *Cache) Accesses() uint64 { return c.Hits + c.Misses }

// MissRate returns misses / accesses, or 0 with no accesses.
func (c *Cache) MissRate() float64 {
	n := c.Accesses()
	if n == 0 {
		return 0
	}
	return float64(c.Misses) / float64(n)
}

// SetBaseline freezes c and registers base as its delta-clone anchor:
// CloneInto from c can then restore a destination that shares the same
// anchor by rewriting only the destination's journaled mutations and
// c's precomputed divergence from the anchor. Unless c is base itself,
// c keeps only that divergence and drops its own tag store. base must
// hold a full tag store and outlive c unmodified; c itself must not be
// accessed after this call.
func (c *Cache) SetBaseline(base *Cache) {
	if len(c.tags) != len(base.tags) {
		return
	}
	c.base = base
	c.delta, c.lines = c.delta[:0], c.lines[:0]
	for i := range c.tags {
		if c.tags[i] != base.tags[i] || c.valid[i] != base.valid[i] || c.age[i] != base.age[i] {
			c.delta = append(c.delta, int32(i))
			c.lines = append(c.lines, cacheLine{c.tags[i], c.age[i], c.valid[i]})
		}
	}
	c.journal, c.jovf = nil, false
	if c != base {
		c.tags, c.valid, c.age = nil, nil, nil
	}
}

// CloneInto returns a deep copy of c in d, reusing d's tag arrays (the
// snapshot-arena path; the L2 alone is over half a megabyte of tag
// state, so reuse matters), or in a new cache when d is nil. When c
// carries a baseline (SetBaseline) and d was last restored from an
// origin with the same baseline, only the lines d mutated since plus
// c's divergence from the baseline are rewritten. Otherwise d gets a
// flat copy: of c's tag store, or of the baseline's with c's divergence
// written over it. A frozen delta is materialized the same way into a
// new cache, which opts out of the delta-clone machinery: it shares no
// baseline and journals nothing, so a copy that runs on for long never
// pays for a journal it cannot use.
func (c *Cache) CloneInto(d *Cache) *Cache {
	fresh := d == nil
	if fresh {
		d = &Cache{}
	}
	if b := c.base; b != nil && d.base == b && !d.jovf && len(d.tags) == len(b.tags) {
		for _, i := range d.journal {
			d.tags[i], d.valid[i], d.age[i] = b.tags[i], b.valid[i], b.age[i]
		}
		c.applyDelta(d)
		d.name, d.sets, d.ways, d.lineBits = c.name, c.sets, c.ways, c.lineBits
		d.stamp, d.Hits, d.Misses = c.stamp, c.Hits, c.Misses
		d.delta, d.lines = nil, nil
		d.journal = append(d.journal[:0], c.delta...)
		return d
	}
	src := c
	if c.tags == nil {
		src = c.base
	}
	tags, valid, age, journal := d.tags, d.valid, d.age, d.journal
	*d = *c
	d.tags = append(tags[:0], src.tags...)
	d.valid = append(valid[:0], src.valid...)
	d.age = append(age[:0], src.age...)
	c.applyDelta(d)
	// A flat copy leaves d equal to c, so d's divergence from the
	// baseline is exactly c's own delta.
	d.delta, d.lines = nil, nil
	d.journal = journal[:0]
	d.jovf = false
	switch {
	case fresh:
		d.base, d.journal = nil, nil
	case c.base != nil:
		d.journal = append(d.journal, c.delta...)
	}
	return d
}

// applyDelta writes c's divergence from its baseline into d's tag
// store.
func (c *Cache) applyDelta(d *Cache) {
	for k, i := range c.delta {
		l := &c.lines[k]
		d.tags[i], d.valid[i], d.age[i] = l.tag, l.valid, l.age
	}
}

// TLB is a small fully-associative LRU translation buffer, timing-only.
type TLB struct {
	entries  int
	pageBits uint
	pages    []uint64
	valid    []bool
	age      []uint64
	stamp    uint64
	// last is the entry index of the most recent hit. Pages are unique
	// across valid entries (fills happen only on miss), so when the
	// next access maps to the same page the full scan provably lands on
	// the same entry and is skipped. Pure memoization: never compared,
	// cloned as an ordinary field.
	last int

	Hits   uint64
	Misses uint64
}

// NewTLB creates a TLB with the given entry count and page size.
func NewTLB(entries, pageBytes int) *TLB {
	if entries <= 0 || pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("mem: bad TLB geometry")
	}
	pb := uint(0)
	for 1<<pb < pageBytes {
		pb++
	}
	return &TLB{
		entries:  entries,
		pageBits: pb,
		pages:    make([]uint64, entries),
		valid:    make([]bool, entries),
		age:      make([]uint64, entries),
	}
}

// Access looks up the page of addr and reports whether it hit; misses
// fill the LRU entry.
func (t *TLB) Access(addr uint64) bool {
	page := addr >> t.pageBits
	t.stamp++
	if l := t.last; t.valid[l] && t.pages[l] == page {
		t.age[l] = t.stamp
		t.Hits++
		return true
	}
	victim, victimAge := 0, t.age[0]
	for i := 0; i < t.entries; i++ {
		if t.valid[i] && t.pages[i] == page {
			t.age[i] = t.stamp
			t.last = i
			t.Hits++
			return true
		}
		if !t.valid[i] {
			victim, victimAge = i, 0
		} else if t.age[i] < victimAge {
			victim, victimAge = i, t.age[i]
		}
	}
	t.Misses++
	t.pages[victim] = page
	t.valid[victim] = true
	t.age[victim] = t.stamp
	t.last = victim
	return false
}

// CloneInto returns a deep copy of t in d, reusing d's storage, or in
// a new TLB when d is nil.
func (t *TLB) CloneInto(d *TLB) *TLB {
	if d == nil {
		d = &TLB{}
	}
	pages, valid, age := d.pages, d.valid, d.age
	*d = *t
	d.pages = append(pages[:0], t.pages...)
	d.valid = append(valid[:0], t.valid...)
	d.age = append(age[:0], t.age...)
	return d
}

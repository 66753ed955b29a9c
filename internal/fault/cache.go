package fault

import (
	"sort"
	"sync"
	"sync/atomic"

	"faulthound/internal/pipeline"
)

// PreparedKey identifies one reusable golden preparation: the cell it
// belongs to and the exact campaign configuration. Config is a value
// type, so the key is comparable and two jobs that share a bench,
// scheme, and fault config map to the same entry.
type PreparedKey struct {
	Bench  string
	Scheme string
	Cfg    Config
}

// PreparedCache shares golden-run preparations across campaigns. The
// golden phase (detector fast-forward, warmup, hash/background trace)
// dominates small campaigns and is identical for every job with the
// same (bench, scheme, config) cell, and a Prepared is read-only after
// Prepare returns — so a long-lived caller (the campaign-serving
// daemon) can prepare each cell once and fan any number of jobs over
// it. Entries are never evicted; the population is bounded by the
// bench × scheme × config combinations actually served.
type PreparedCache struct {
	mu sync.Mutex
	m  map[PreparedKey]*preparedEntry

	// hits and misses count Get outcomes: a miss is the call that
	// creates a key's entry (and runs Prepare), a hit any later call
	// that reuses it — including callers that block on a preparation
	// still in flight. The daemon exports both on /metrics.
	hits, misses atomic.Uint64
}

type preparedEntry struct {
	once sync.Once
	p    *Prepared
	err  error
}

// NewPreparedCache returns an empty cache.
func NewPreparedCache() *PreparedCache {
	return &PreparedCache{m: make(map[PreparedKey]*preparedEntry)}
}

// Get returns the cached preparation for key, running Prepare(mk,
// key.Cfg) at most once per key even under concurrent callers.
// Preparation errors are cached too: a cell whose golden run fails
// fails every job the same way instead of re-running the warmup.
func (c *PreparedCache) Get(key PreparedKey, mk func() *pipeline.Core) (*Prepared, error) {
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &preparedEntry{}
		c.m[key] = e
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.p, e.err = Prepare(mk, key.Cfg)
	})
	return e.p, e.err
}

// Len reports the number of cached cells (including failed ones).
func (c *PreparedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats reports the cumulative Get hit and miss counts.
func (c *PreparedCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Keys lists the cached preparation keys, sorted by bench then scheme
// (map order would not be deterministic), so a caller can reach every
// cached Prepared, for instance to sum their Perf counters.
func (c *PreparedCache) Keys() []PreparedKey {
	c.mu.Lock()
	out := make([]PreparedKey, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Scheme < out[j].Scheme
	})
	return out
}

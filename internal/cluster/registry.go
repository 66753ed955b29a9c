package cluster

import (
	"sort"
	"sync"
	"time"

	"faulthound/internal/obs/metrics"
)

// Registry is the coordinator's worker table. Workers appear by
// registering, refresh themselves with heartbeats, and expire (stop
// receiving leases) when no heartbeat arrives within ExpireAfter. A
// worker whose shard stream fails is marked failed immediately — the
// scheduler must not wait a full heartbeat period to route around a
// dead node.
type Registry struct {
	// ExpireAfter is the heartbeat silence after which a worker is
	// considered dead. Zero means DefaultExpireAfter.
	ExpireAfter time.Duration

	// now overrides time.Now in tests.
	now func() time.Time

	mu      sync.Mutex
	workers map[string]*workerEntry

	// alive is the exported fh_cluster_workers_alive gauge; nil is
	// allowed (tests).
	alive *metrics.Value
}

// DefaultExpireAfter is the default heartbeat-expiry window. Worker
// heartbeats default to a third of it, so a worker survives two lost
// heartbeats.
const DefaultExpireAfter = 10 * time.Second

type workerEntry struct {
	status   WorkerStatus
	lastSeen time.Time
	// leases is the coordinator-side count of ranges currently leased
	// to this worker (maintained by the scheduler, not the worker).
	leases int
	// failed marks a worker whose shard stream errored; cleared by the
	// next successful heartbeat or registration.
	failed bool
}

// NewRegistry returns an empty registry. The gauge is optional; when
// non-nil it tracks the live worker count.
func NewRegistry(alive *metrics.Value) *Registry {
	return &Registry{workers: make(map[string]*workerEntry), now: time.Now, alive: alive}
}

func (r *Registry) expiry() time.Duration {
	if r.ExpireAfter > 0 {
		return r.ExpireAfter
	}
	return DefaultExpireAfter
}

// Register adds or refreshes a worker. Registration clears a failure
// mark: a restarted worker re-registers under the same ID.
func (r *Registry) Register(st WorkerStatus) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.workers[st.ID]
	if e == nil {
		e = &workerEntry{}
		r.workers[st.ID] = e
	}
	e.status = st
	e.lastSeen = r.now()
	e.failed = false
	r.updateGaugeLocked()
}

// Heartbeat refreshes a worker's status. It reports false for an
// unknown ID — the worker should re-register (the coordinator may have
// restarted and lost its table).
func (r *Registry) Heartbeat(st WorkerStatus) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.workers[st.ID]
	if e == nil {
		return false
	}
	e.status = st
	e.lastSeen = r.now()
	e.failed = false
	r.updateGaugeLocked()
	return true
}

// MarkFailed flags a worker whose shard stream died. The worker stops
// receiving leases until its next heartbeat proves it alive.
func (r *Registry) MarkFailed(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.workers[id]; e != nil {
		e.failed = true
	}
	r.updateGaugeLocked()
}

// AddLeases adjusts the coordinator-side active-lease count of a
// worker (+1 on grant, -1 on completion or failure).
func (r *Registry) AddLeases(id string, d int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.workers[id]; e != nil {
		e.leases += d
		if e.leases < 0 {
			e.leases = 0
		}
	}
}

// Candidate is a scheduling view of one worker, as the lease rule
// sees it.
type Candidate struct {
	Status WorkerStatus
	// Alive is true when the worker heartbeated within the expiry
	// window and is not marked failed.
	Alive bool
	// Leases is the coordinator-side count of ranges currently leased
	// to the worker.
	Leases int
}

// Free reports remaining shard capacity.
func (c Candidate) Free() int {
	slots := c.Status.Slots
	if slots <= 0 {
		slots = 1
	}
	return slots - c.Leases
}

// Snapshot lists every registered worker as a candidate, sorted by ID
// so the lease rule walks the fleet in a fixed order.
func (r *Registry) Snapshot() []Candidate {
	r.mu.Lock()
	defer r.mu.Unlock()
	cutoff := r.now().Add(-r.expiry())
	out := make([]Candidate, 0, len(r.workers))
	for _, e := range r.workers {
		out = append(out, Candidate{
			Status: e.status,
			Alive:  !e.failed && e.lastSeen.After(cutoff),
			Leases: e.leases,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Status.ID < out[j].Status.ID })
	return out
}

// AliveCount reports the number of live workers — the coordinator's
// readiness signal.
func (r *Registry) AliveCount() int {
	n := 0
	for _, c := range r.Snapshot() {
		if c.Alive {
			n++
		}
	}
	return n
}

// updateGaugeLocked refreshes the alive-workers gauge.
func (r *Registry) updateGaugeLocked() {
	if r.alive == nil {
		return
	}
	cutoff := r.now().Add(-r.expiry())
	n := 0
	for _, e := range r.workers {
		if !e.failed && e.lastSeen.After(cutoff) {
			n++
		}
	}
	r.alive.Set(float64(n))
}

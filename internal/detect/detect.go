// Package detect defines the interface between the pipeline simulator
// and a soft-fault detection scheme (FaultHound, PBFS, or none). The
// pipeline feeds the detector the load/store value stream at the two
// check points the paper uses — instruction completion (Section 3.3)
// and commit (Section 3.5) — and the detector answers with a recovery
// action.
package detect

// Kind identifies which operand stream a checked value belongs to. The
// paper checks load addresses, store addresses, and store values
// against separate value localities.
type Kind uint8

// Checked operand kinds.
const (
	LoadAddr Kind = iota
	StoreAddr
	StoreValue
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case LoadAddr:
		return "load-addr"
	case StoreAddr:
		return "store-addr"
	case StoreValue:
		return "store-value"
	}
	return "?"
}

// Action is the recovery the detector requests from the pipeline.
type Action uint8

// Recovery actions.
const (
	// None: the value is inside its neighborhood.
	None Action = iota
	// Replay: light-weight predecessor replay of the delay buffer
	// (likely back-end fault or false positive).
	Replay
	// Rollback: full pipeline squash (likely rename/front-end fault).
	Rollback
	// Singleton: commit-time re-execution of the single load or store
	// from register-file state (LSQ coverage).
	Singleton
)

// String names the action.
func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Replay:
		return "replay"
	case Rollback:
		return "rollback"
	case Singleton:
		return "singleton"
	}
	return "?"
}

// Event is one checked operand.
type Event struct {
	Kind   Kind
	Value  uint64
	PC     uint64
	Thread int
}

// Stats are the detector-side counters the harness reads.
type Stats struct {
	Checks     uint64 // total operand checks
	Triggers   uint64 // values outside every neighborhood
	Suppressed uint64 // triggers masked by a second-level filter
	Replays    uint64 // replay actions returned
	Rollbacks  uint64 // rollback actions returned
	Singletons uint64 // singleton actions returned
	// TCAMSearches and TCAMUpdates feed the energy model.
	TCAMSearches uint64
	TCAMUpdates  uint64
	// TableReads/TableWrites cover PC-indexed (RAM) filter tables.
	TableReads  uint64
	TableWrites uint64
}

// Sub returns s minus o, field by field: the counts a window added,
// with o read before it and s after.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Checks:       s.Checks - o.Checks,
		Triggers:     s.Triggers - o.Triggers,
		Suppressed:   s.Suppressed - o.Suppressed,
		Replays:      s.Replays - o.Replays,
		Rollbacks:    s.Rollbacks - o.Rollbacks,
		Singletons:   s.Singletons - o.Singletons,
		TCAMSearches: s.TCAMSearches - o.TCAMSearches,
		TCAMUpdates:  s.TCAMUpdates - o.TCAMUpdates,
		TableReads:   s.TableReads - o.TableReads,
		TableWrites:  s.TableWrites - o.TableWrites,
	}
}

// Add returns s plus o, field by field: the counters of two detectors
// summed, as over the cores of one machine.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Checks:       s.Checks + o.Checks,
		Triggers:     s.Triggers + o.Triggers,
		Suppressed:   s.Suppressed + o.Suppressed,
		Replays:      s.Replays + o.Replays,
		Rollbacks:    s.Rollbacks + o.Rollbacks,
		Singletons:   s.Singletons + o.Singletons,
		TCAMSearches: s.TCAMSearches + o.TCAMSearches,
		TCAMUpdates:  s.TCAMUpdates + o.TCAMUpdates,
		TableReads:   s.TableReads + o.TableReads,
		TableWrites:  s.TableWrites + o.TableWrites,
	}
}

// Detector is a soft-fault detection scheme attached to the pipeline.
// Implementations must be deterministic and support deep copy via
// CloneInto for tandem fault-injection runs.
type Detector interface {
	// Name identifies the scheme in harness output.
	Name() string
	// OnComplete checks an operand at instruction completion and
	// returns the requested action (None, Replay, or Rollback).
	OnComplete(ev Event) Action
	// OnCommit checks an operand at commit (the LSQ check) and returns
	// None or Singleton.
	OnCommit(ev Event) Action
	// CommitMutates reports whether OnCommit can change the detector's
	// state beyond its Stats counters: whether a commit check can change
	// what any later check returns. A detector whose commit check only
	// probes its filters (or does nothing) reports false, and the
	// pipeline's reconvergence digest then leaves its commit checks out.
	CommitMutates() bool
	// SetLearnOnly, while true, makes checks update the filters but
	// never trigger (the pipeline sets this during replay, Section 3.3).
	SetLearnOnly(on bool)
	// Stats returns a snapshot of the detector counters.
	Stats() Stats
	// CloneInto returns an independent deep copy of the detector. It
	// overwrites dst, reusing its storage, when dst is a compatible
	// detector (the same concrete type and mode, typically a previous
	// copy of the same source: the snapshot arena's case); for a nil or
	// incompatible dst it allocates a new one and leaves dst untouched.
	CloneInto(dst Detector) Detector
}

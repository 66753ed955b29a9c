// Package core implements the FaultHound detector — the paper's primary
// contribution. It combines the five mechanisms of Section 3:
//
//  1. Clustered, value-indexed filters: two small counting TCAMs (one
//     for load/store addresses, one for store values).
//  2. A second-level filter per TCAM that masks delinquent bit
//     positions (inside package tcam).
//  3. Predecessor replay as the default trigger response (the pipeline
//     executes it; this package requests it).
//  4. Squash state machines that escalate likely rename faults to a
//     full rollback.
//  5. Commit-time LSQ checks answered with a singleton re-execute.
//
// Every ablation of Figures 8-12 is a Config variant: backend-only,
// no-cluster (PC-indexed tables), no-second-level, full-rollback, and
// no-LSQ.
package core

import (
	"faulthound/internal/detect"
	"faulthound/internal/filter"
	"faulthound/internal/ftable"
	"faulthound/internal/tcam"
)

// Config selects the FaultHound variant.
type Config struct {
	// Name labels the detector in harness output.
	Name string
	// Addr and Value configure the two TCAMs (Table 2: 32-entry,
	// 64-bit, biased two-bit machines, second-level filters, squash
	// state machines).
	Addr  tcam.Config
	Value tcam.Config
	// BackendOnly disables the rename-fault squash escalation: every
	// allowed trigger replays (FaultHound-backend in Figure 8).
	BackendOnly bool
	// NoLSQ disables the commit-time checks (FH-BE-noLSQ in Figure 12).
	NoLSQ bool
	// FullRollback answers every allowed trigger with a full rollback
	// instead of a replay (FH-BE-full-rollback in Figure 12).
	FullRollback bool
	// NoCluster replaces the TCAMs with PC-indexed tables using the
	// biased state machine (FH-BE-nocluster in Figure 12); TableEntries
	// sizes them.
	NoCluster    bool
	TableEntries int
}

// DefaultConfig returns full FaultHound with the paper's Table-2
// parameters.
func DefaultConfig() Config {
	return Config{Name: "faulthound", Addr: tcam.DefaultConfig(), Value: tcam.DefaultConfig()}
}

// BackendConfig returns FaultHound-backend: no rename-fault rollbacks.
func BackendConfig() Config {
	c := DefaultConfig()
	c.Name = "faulthound-backend"
	c.BackendOnly = true
	c.Addr.SquashMachines = false
	c.Value.SquashMachines = false
	return c
}

// No2LevelConfig returns FH-BE-no2level (Figure 12-left).
func No2LevelConfig() Config {
	c := BackendConfig()
	c.Name = "fh-be-no2level"
	c.Addr.SecondLevel = false
	c.Value.SecondLevel = false
	return c
}

// NoClusterNo2LevelConfig returns FH-BE-nocluster-no2level (Figure
// 12-left): PC-indexed biased tables with replay recovery, i.e.
// PBFS-biased plus replay.
func NoClusterNo2LevelConfig() Config {
	c := No2LevelConfig()
	c.Name = "fh-be-nocluster-no2level"
	c.NoCluster = true
	c.TableEntries = 2048
	return c
}

// FullRollbackConfig returns FH-BE-full-rollback (Figure 12-middle).
func FullRollbackConfig() Config {
	c := BackendConfig()
	c.Name = "fh-be-full-rollback"
	c.FullRollback = true
	return c
}

// NoLSQConfig returns FH-BE-noLSQ (Figure 12-right).
func NoLSQConfig() Config {
	c := BackendConfig()
	c.Name = "fh-be-nolsq"
	c.NoLSQ = true
	return c
}

// FaultHound is the detector.
type FaultHound struct {
	cfg   Config
	addr  *tcam.TCAM
	value *tcam.TCAM
	// PC-indexed fallbacks for the no-cluster ablation.
	addrTab  *ftable.Table
	valueTab *ftable.Table

	learnOnly bool
	stats     detect.Stats
}

// New creates a FaultHound detector from cfg.
func New(cfg Config) *FaultHound {
	if cfg.Name == "" {
		cfg.Name = "faulthound"
	}
	f := &FaultHound{cfg: cfg}
	if cfg.NoCluster {
		entries := cfg.TableEntries
		if entries == 0 {
			entries = 2048
		}
		tc := ftable.Config{Entries: entries, Policy: filter.Biased2}
		f.addrTab = ftable.New(tc)
		f.valueTab = ftable.New(tc)
	} else {
		f.addr = tcam.New(cfg.Addr)
		f.value = tcam.New(cfg.Value)
	}
	return f
}

// Name implements detect.Detector.
func (f *FaultHound) Name() string { return f.cfg.Name }

// Config returns the detector configuration.
func (f *FaultHound) Config() Config { return f.cfg }

// lookup dispatches a checked operand to the right filter bank.
func (f *FaultHound) lookup(ev detect.Event) tcam.Result {
	if f.cfg.NoCluster {
		tab := f.addrTab
		if ev.Kind == detect.StoreValue {
			tab = f.valueTab
		}
		f.stats.TableReads++
		f.stats.TableWrites++
		trig, mask := tab.Lookup(ev.PC, ev.Value)
		if f.learnOnly {
			trig = false
		}
		return tcam.Result{Trigger: trig, MismatchMask: mask}
	}
	tc := f.addr
	if ev.Kind == detect.StoreValue {
		tc = f.value
	}
	f.stats.TCAMSearches++
	f.stats.TCAMUpdates++
	return tc.Lookup(ev.Value)
}

// OnComplete implements the completion-time check of Section 3.3: an
// allowed trigger replays the delay buffer, unless the squash state
// machine flags a likely rename fault (Section 3.4), which needs a full
// rollback.
func (f *FaultHound) OnComplete(ev detect.Event) detect.Action {
	f.stats.Checks++
	res := f.lookup(ev)
	if !res.Trigger {
		return detect.None
	}
	f.stats.Triggers++
	if res.Suppressed {
		f.stats.Suppressed++
		return detect.None
	}
	if res.SquashAllowed && !f.cfg.BackendOnly {
		f.stats.Rollbacks++
		return detect.Rollback
	}
	if f.cfg.FullRollback {
		f.stats.Rollbacks++
		return detect.Rollback
	}
	f.stats.Replays++
	return detect.Replay
}

// OnCommit implements the LSQ check of Section 3.5: an allowed trigger
// re-executes the single load or store from register-file state. The
// check probes the filters without re-training them — the value was
// already learned at completion.
func (f *FaultHound) OnCommit(ev detect.Event) detect.Action {
	if f.cfg.NoLSQ {
		return detect.None
	}
	f.stats.Checks++
	var trigger, suppressed bool
	if f.cfg.NoCluster {
		tab := f.addrTab
		if ev.Kind == detect.StoreValue {
			tab = f.valueTab
		}
		f.stats.TableReads++
		trigger, _ = tab.Lookup(ev.PC, ev.Value) // tables have no probe path
		if f.learnOnly {
			trigger = false
		}
	} else {
		tc := f.addr
		if ev.Kind == detect.StoreValue {
			tc = f.value
		}
		f.stats.TCAMSearches++
		trigger, suppressed = tc.Probe(ev.Value)
	}
	if !trigger || suppressed {
		if trigger {
			f.stats.Triggers++
			f.stats.Suppressed++
		}
		return detect.None
	}
	f.stats.Triggers++
	f.stats.Singletons++
	return detect.Singleton
}

// SetLearnOnly implements detect.Detector: during a replay the filters
// keep learning but triggers are ignored (Section 3.3).
func (f *FaultHound) SetLearnOnly(on bool) {
	f.learnOnly = on
	if f.cfg.NoCluster {
		return
	}
	f.addr.SetLearnOnly(on)
	f.value.SetLearnOnly(on)
}

// Stats implements detect.Detector.
func (f *FaultHound) Stats() detect.Stats { return f.stats }

// TCAMStats returns the raw TCAM counters (zero values in no-cluster
// mode).
func (f *FaultHound) TCAMStats() (addr, value tcam.Stats) {
	if f.cfg.NoCluster {
		return tcam.Stats{}, tcam.Stats{}
	}
	return f.addr.Stats(), f.value.Stats()
}

// CloneInto implements detect.Detector: a deep copy of f in dst,
// reusing its filter-bank storage when dst is a FaultHound of the same
// clustering mode, or in a new detector otherwise.
func (f *FaultHound) CloneInto(dst detect.Detector) detect.Detector {
	c, ok := dst.(*FaultHound)
	if !ok || c == nil || c.cfg.NoCluster != f.cfg.NoCluster {
		c = &FaultHound{}
	}
	c.cfg, c.learnOnly, c.stats = f.cfg, f.learnOnly, f.stats
	if f.cfg.NoCluster {
		c.addrTab = f.addrTab.CloneInto(c.addrTab)
		c.valueTab = f.valueTab.CloneInto(c.valueTab)
	} else {
		c.addr = f.addr.CloneInto(c.addr)
		c.value = f.value.CloneInto(c.value)
	}
	return c
}

// Package pbfs implements the Perturbation-Based Fault Screening
// baseline (Racunas et al., HPCA 2007) as configured in the FaultHound
// paper's comparison: 2K-entry PC-indexed filter tables with one-bit
// sticky counters (PBFS) or with the paper's biased two-bit state
// machine (PBFS-biased). Every trigger causes a full pipeline rollback;
// there are no commit-time checks, no clustering, no second-level
// filter, and no replay.
package pbfs

import (
	"faulthound/internal/detect"
	"faulthound/internal/ftable"
)

// Config selects the PBFS variant.
type Config struct {
	// Addr and Value are the two PC-indexed tables: one checks load and
	// store addresses, the other store values.
	Addr  ftable.Config
	Value ftable.Config
	// Name overrides the detector name (defaults to "pbfs").
	Name string
}

// Default returns the original PBFS configuration used in the paper's
// comparison (one-bit sticky counters, 2K entries, periodic clear).
func Default() Config {
	return Config{Addr: ftable.DefaultPBFS(), Value: ftable.DefaultPBFS(), Name: "pbfs"}
}

// Biased returns PBFS-biased: the same tables with the biased two-bit
// state machine, as evaluated in Figure 8.
func Biased() Config {
	return Config{Addr: ftable.DefaultBiased(), Value: ftable.DefaultBiased(), Name: "pbfs-biased"}
}

// PBFS is the detector.
type PBFS struct {
	cfg       Config
	addr      *ftable.Table
	value     *ftable.Table
	learnOnly bool
	stats     detect.Stats
}

// New creates a PBFS detector.
func New(cfg Config) *PBFS {
	if cfg.Name == "" {
		cfg.Name = "pbfs"
	}
	return &PBFS{cfg: cfg, addr: ftable.New(cfg.Addr), value: ftable.New(cfg.Value)}
}

// Name implements detect.Detector.
func (p *PBFS) Name() string { return p.cfg.Name }

// OnComplete checks the operand and requests a full rollback on any
// trigger, PBFS's only recovery mechanism (Section 2.1).
func (p *PBFS) OnComplete(ev detect.Event) detect.Action {
	p.stats.Checks++
	p.stats.TableReads++
	p.stats.TableWrites++
	var trig bool
	if ev.Kind == detect.StoreValue {
		trig, _ = p.value.Lookup(ev.PC, ev.Value)
	} else {
		trig, _ = p.addr.Lookup(ev.PC, ev.Value)
	}
	if !trig || p.learnOnly {
		return detect.None
	}
	p.stats.Triggers++
	p.stats.Rollbacks++
	return detect.Rollback
}

// OnCommit does nothing: PBFS has no LSQ coverage.
func (p *PBFS) OnCommit(detect.Event) detect.Action { return detect.None }

// SetLearnOnly implements detect.Detector. PBFS uses full rollbacks,
// which squash the triggering instruction itself, so the pipeline never
// replays; the flag exists for interface completeness.
func (p *PBFS) SetLearnOnly(on bool) { p.learnOnly = on }

// Stats implements detect.Detector.
func (p *PBFS) Stats() detect.Stats { return p.stats }

// CloneInto implements detect.Detector: a deep copy of p in dst,
// reusing its filter-table storage when dst is a PBFS, or in a new
// detector otherwise.
func (p *PBFS) CloneInto(dst detect.Detector) detect.Detector {
	c, ok := dst.(*PBFS)
	if !ok || c == nil {
		c = &PBFS{}
	}
	c.cfg, c.learnOnly, c.stats = p.cfg, p.learnOnly, p.stats
	c.addr = p.addr.CloneInto(c.addr)
	c.value = p.value.CloneInto(c.value)
	return c
}

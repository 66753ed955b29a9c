package scheme

import (
	"strconv"

	"faulthound/internal/core"
	"faulthound/internal/detect"
	"faulthound/internal/filter"
	"faulthound/internal/pbfs"
	"faulthound/internal/pipeline"
	"faulthound/internal/pspec"
	"faulthound/internal/srt"
)

// This file registers the schemes of the paper's evaluation. Every
// variant that used to be a hard-coded harness enum constant is a
// registry entry here, parameterized over the sensitivity knobs the
// paper sweeps (TCAM filter entries, delay-buffer slots, LSQ checks,
// the second-level filter, the biased state machine's depth).

// Shared parameter metadata of the FaultHound family.
var (
	paramTCAM = pspec.Param{Name: "tcam", Kind: pspec.Int, Default: "32", Min: 1, Max: 64,
		Help: "entries per TCAM filter bank (paper sweeps 8-64, Table 2 uses 32)"}
	paramDelay = pspec.Param{Name: "delay", Kind: pspec.Int, Default: "7",
		Help: "delay-buffer slots, the replay window (paper sweeps 6-8; 0 disables)"}
	paramLSQ = pspec.Param{Name: "lsq", Kind: pspec.Bool, Default: "on",
		Help: "commit-time LSQ singleton checks (Section 3.5)"}
	param2Level = pspec.Param{Name: "2level", Kind: pspec.Bool, Default: "on",
		Help: "second-level delinquent-bit filter (Section 3.2)"}
	paramSquash = pspec.Param{Name: "squash", Kind: pspec.Bool, Default: "on",
		Help: "per-entry squash state machines escalating rename faults to rollback (Section 3.4)"}
	paramLoosen = pspec.Param{Name: "loosen", Kind: pspec.Int, Default: "4", Min: 1,
		Help: "max mismatch bits for loosening the closest filter instead of replacing one"}
	paramDepth = pspec.Param{Name: "depth", Kind: pspec.Int, Default: "2", Min: 2, Max: 3,
		Help: "no-changes a filter bit needs to re-enter unchanging: the biased machine's depth (Section 3 compares 2 and 3)"}
)

// fhApply folds the shared FaultHound-family parameters into cfg and
// returns the pipeline hook for the delay parameter.
func fhApply(cfg *core.Config, sp Spec, v pspec.Values) func(*pipeline.Config) {
	cfg.Name = sp.String()
	entries := v.Int("tcam")
	cfg.Addr.Entries, cfg.Value.Entries = entries, entries
	loosen := v.Int("loosen")
	cfg.Addr.LoosenThreshold, cfg.Value.LoosenThreshold = loosen, loosen
	policy := filter.Biased2
	if v.Int("depth") == 3 {
		policy = filter.Biased3
	}
	cfg.Addr.Policy, cfg.Value.Policy = policy, policy
	delay := v.Int("delay")
	return func(pc *pipeline.Config) { pc.DelayBuffer = delay }
}

// registerFH registers one FaultHound-family scheme over a base
// config. The extra parameters (lsq, 2level, squash) are declared only
// where the base config has the mechanism enabled — its ablations are
// separate registered schemes already.
func registerFH(name, help string, base func() core.Config, params ...pspec.Param) {
	Register(Scheme{
		Name:   name,
		Help:   help,
		Params: append([]pspec.Param{paramTCAM, paramDelay, paramLoosen, paramDepth}, params...),
		Build: func(sp Spec, v pspec.Values, _ Env) (Instance, error) {
			cfg := base()
			pipe := fhApply(&cfg, sp, v)
			if v.Has("lsq") {
				cfg.NoLSQ = !v.Bool("lsq")
			}
			if v.Has("2level") {
				on := v.Bool("2level")
				cfg.Addr.SecondLevel, cfg.Value.SecondLevel = on, on
			}
			if v.Has("squash") {
				on := v.Bool("squash")
				cfg.Addr.SquashMachines, cfg.Value.SquashMachines = on, on
				cfg.BackendOnly = !on
			}
			return Instance{
				NewDetector: func() detect.Detector { return core.New(cfg) },
				Configure:   pipe,
			}, nil
		},
	})
}

// registerPBFS registers one PBFS table variant.
func registerPBFS(name, help string, base func() pbfs.Config) {
	defaults := base()
	Register(Scheme{
		Name: name,
		Help: help,
		Params: []pspec.Param{
			{Name: "entries", Kind: pspec.Int, Default: itoa(defaults.Addr.Entries), Min: 1,
				Help: "entries per PC-indexed filter table"},
			{Name: "clear", Kind: pspec.Int, Default: itoa(int(defaults.Addr.ClearInterval)),
				Help: "flash-clear interval in lookups (0 disables)"},
		},
		Build: func(sp Spec, v pspec.Values, _ Env) (Instance, error) {
			cfg := base()
			cfg.Name = sp.String()
			entries, clear := v.Int("entries"), uint64(v.Int("clear"))
			cfg.Addr.Entries, cfg.Value.Entries = entries, entries
			cfg.Addr.ClearInterval, cfg.Value.ClearInterval = clear, clear
			return Instance{NewDetector: func() detect.Detector { return pbfs.New(cfg) }}, nil
		},
	})
}

func itoa(n int) string { return strconv.Itoa(n) }

func init() {
	// Registration order is the order of Names, usage strings, and
	// error messages — the harness's historical order.
	Register(Scheme{
		Name: "baseline",
		Help: "unprotected pipeline, no detector (the pairing basis of every campaign)",
		Build: func(Spec, pspec.Values, Env) (Instance, error) {
			return Instance{}, nil
		},
	})
	registerPBFS("pbfs",
		"perturbation-based fault screening, one-bit sticky counters (Racunas et al., HPCA'07)",
		pbfs.Default)
	registerPBFS("pbfs-biased",
		"PBFS tables with the paper's biased two-bit state machine (Figure 8)",
		pbfs.Biased)
	registerFH("faulthound-backend",
		"FaultHound without rename-fault squash escalation (Figure 8)",
		core.BackendConfig, paramLSQ, param2Level)
	registerFH("faulthound",
		"full FaultHound: clustered TCAMs, 2nd-level filter, replay, squash machines, LSQ checks",
		core.DefaultConfig, paramLSQ, param2Level, paramSquash)
	Register(Scheme{
		Name: "srt-iso",
		Help: "idealized partial-redundancy SRT matched to FaultHound's coverage (Section 4)",
		Params: []pspec.Param{
			{Name: "coverage", Kind: pspec.Float, Default: "0.75",
				Help: "fraction of committed instructions re-executed redundantly"},
		},
		Build: func(_ Spec, v pspec.Values, env Env) (Instance, error) {
			cov := v.Float("coverage")
			if !v.Explicit("coverage") && env.SRTCoverage > 0 {
				cov = env.SRTCoverage
			}
			m := srt.Iso(cov)
			return Instance{Configure: func(pc *pipeline.Config) { m.Configure(pc) }}, nil
		},
	})
	Register(Scheme{
		Name: "srt",
		Help: "full-redundancy SRT (coverage 1.0)",
		Build: func(Spec, pspec.Values, Env) (Instance, error) {
			m := srt.Full()
			return Instance{Configure: func(pc *pipeline.Config) { m.Configure(pc) }}, nil
		},
	})
	registerFH("fh-be",
		"alias of faulthound-backend in Figure 12 naming",
		core.BackendConfig, paramLSQ, param2Level)
	registerFH("fh-be-nolsq",
		"backend-only FaultHound without commit-time LSQ checks (Figure 12-right)",
		core.NoLSQConfig, param2Level)
	registerFH("fh-be-no2level",
		"backend-only FaultHound without the second-level filter (Figure 12-left)",
		core.No2LevelConfig, paramLSQ)
	Register(Scheme{
		Name: "fh-be-nocluster-no2level",
		Help: "PC-indexed biased tables with replay recovery, i.e. PBFS-biased plus replay (Figure 12-left)",
		Params: []pspec.Param{
			{Name: "entries", Kind: pspec.Int, Default: "2048", Min: 1,
				Help: "entries per PC-indexed table (replaces the TCAMs)"},
			paramDelay,
			paramLSQ,
		},
		Build: func(sp Spec, v pspec.Values, _ Env) (Instance, error) {
			cfg := core.NoClusterNo2LevelConfig()
			cfg.Name = sp.String()
			cfg.TableEntries = v.Int("entries")
			cfg.NoLSQ = !v.Bool("lsq")
			delay := v.Int("delay")
			return Instance{
				NewDetector: func() detect.Detector { return core.New(cfg) },
				Configure:   func(pc *pipeline.Config) { pc.DelayBuffer = delay },
			}, nil
		},
	})
	registerFH("fh-be-full-rollback",
		"backend-only FaultHound answering every trigger with a full rollback (Figure 12-middle)",
		core.FullRollbackConfig, paramLSQ, param2Level)
}

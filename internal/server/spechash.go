package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"faulthound/internal/campaign"
	"faulthound/internal/fault"
	"faulthound/internal/scheme"
	"faulthound/internal/workload"
)

// NormalizeSpec canonicalizes a submitted spec so semantically
// identical submissions collide on one job:
//
//   - zero-valued fault fields are filled from base (a client that
//     posts only injections and a seed means "the server defaults for
//     everything else"),
//   - scheme specs are canonicalized against the registry (parameter
//     order and default-valued parameters collapse) and sweep syntax
//     fans out, so "faulthound?tcam=32" and "faulthound" are one job,
//   - workload specs likewise: plain benchmark names pass through
//     unchanged, generated specs ("gen?...") canonicalize and fan out,
//   - benchmarks and schemes are re-derived from the canonical cell
//     enumeration (duplicates and an explicit "baseline" collapse, as
//     campaign.Spec.Cells always treated them),
//   - RunID and Workers are erased: neither affects results (the run ID
//     is assigned from the spec hash at job creation; the worker count
//     is a scheduling choice).
//
// Benchmark order is preserved — it determines bundle row order, so it
// is part of the job's identity. An unknown scheme or malformed spec
// is an error satisfying scheme.IsSpecError; an unknown workload or
// malformed workload spec satisfies wgen.IsSpecError.
func NormalizeSpec(spec campaign.Spec, base fault.Config) (campaign.Spec, error) {
	f := spec.Fault
	if f.Injections == 0 {
		f.Injections = base.Injections
	}
	if f.WarmupCycles == 0 {
		f.WarmupCycles = base.WarmupCycles
	}
	if f.SpreadCycles == 0 {
		f.SpreadCycles = base.SpreadCycles
	}
	if f.WindowInstr == 0 {
		f.WindowInstr = base.WindowInstr
	}
	if f.FrontEndPct == 0 {
		f.FrontEndPct = base.FrontEndPct
	}
	if f.LSQPct == 0 {
		f.LSQPct = base.LSQPct
	}
	if f.InFlightBias == 0 {
		f.InFlightBias = base.InFlightBias
	}
	if f.DetectorWarmupInstr == 0 {
		f.DetectorWarmupInstr = base.DetectorWarmupInstr
	}
	if f.MaxCyclesPerRun == 0 {
		f.MaxCyclesPerRun = base.MaxCyclesPerRun
	}
	if f.Seed == 0 {
		f.Seed = base.Seed
	}
	// Canonicalize the scheme list through the registry: sweep values
	// fan out into individual specs, parameter order and default-valued
	// parameters collapse, unknown schemes and malformed specs fail.
	var schemes []string
	for _, s := range spec.Schemes {
		specs, err := scheme.Expand(s)
		if err != nil {
			return campaign.Spec{}, err
		}
		for _, sp := range specs {
			schemes = append(schemes, sp.String())
		}
	}

	// Same for the workload list: plain benchmark names pass through
	// unchanged (keeping historical spec hashes byte-identical),
	// generated specs canonicalize and fan out, unknown workloads and
	// malformed specs fail with a workload-domain spec error.
	benches, err := workload.ExpandSpecs(spec.Benchmarks)
	if err != nil {
		return campaign.Spec{}, err
	}

	out := campaign.Spec{Fault: f}
	seen := make(map[string]bool)
	for _, c := range (campaign.Spec{Benchmarks: benches, Schemes: schemes}).Cells() {
		if !seen["b/"+c.Bench] {
			seen["b/"+c.Bench] = true
			out.Benchmarks = append(out.Benchmarks, c.Bench)
		}
		if sch := c.Scheme.String(); c.Scheme != campaign.BaselineSpec && !seen["s/"+sch] {
			seen["s/"+sch] = true
			out.Schemes = append(out.Schemes, sch)
		}
	}
	return out, nil
}

// specHashable is exactly what identifies a job's results: the
// canonical cell list, the full fault configuration (seed included),
// and the source revision that produced the binary.
type specHashable struct {
	Cells  []campaign.Cell `json:"cells"`
	Fault  fault.Config    `json:"fault"`
	Commit string          `json:"commit"`
}

// SpecHash returns the canonical job identity of a normalized spec: a
// hex SHA-256 (truncated to 24 chars, plenty at daemon scale) over the
// canonical spec JSON plus gitCommit. Two submissions hash equal iff a
// byte-identical bundle would serve both.
func SpecHash(spec campaign.Spec, gitCommit string) string {
	return hashJSON(specHashable{Cells: spec.Cells(), Fault: spec.Fault, Commit: gitCommit})
}

// hashJSON is the job-identity digest of both job kinds: the hex
// SHA-256 of v's JSON, truncated to 24 chars.
func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Job identities are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("server: job hash marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:24]
}

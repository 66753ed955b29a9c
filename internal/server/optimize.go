package server

import (
	"fmt"
	"path/filepath"

	"faulthound/internal/campaign"
	"faulthound/internal/scheme"
	"faulthound/internal/search"
	"faulthound/internal/workload"
)

// DefaultOptimizeBudget caps distinct configurations evaluated when a
// request leaves Budget zero.
const DefaultOptimizeBudget = 8

// paretoFiles is the artifact set an optimize job writes into its job
// directory (contract faulthound.pareto/v1).
var paretoFiles = []string{search.CSVName, search.JSONName, search.ReportName}

// OptimizeRequest is the POST /v1/optimize body: the search space
// (benchmarks × base schemes × mutable params) and the driver knobs.
// Zero values take daemon defaults: Budget 8, Injections the daemon's
// base fault config, Weights all-ones, Params every mutable parameter
// the base schemes declare.
type OptimizeRequest struct {
	// Benchmarks under search; objectives are averaged across them.
	Benchmarks []string `json:"benchmarks"`
	// Schemes seed the search population (registry spec syntax; sweep
	// values fan out).
	Schemes []string `json:"schemes"`
	// Budget caps distinct configurations evaluated.
	Budget int `json:"budget,omitempty"`
	// Seed drives the mutation RNG (0 is a valid seed).
	Seed uint64 `json:"seed,omitempty"`
	// Weights is the "-fitness-weights" flag syntax
	// ("coverage=1,fp=1,energy=1,perf=1"); empty means all ones.
	Weights string `json:"weights,omitempty"`
	// Params restricts mutation to these parameter names.
	Params []string `json:"params,omitempty"`
	// Injections per cell; 0 takes the daemon's base fault config.
	Injections int `json:"injections,omitempty"`
}

// worstCase is a normalized request's injection bound: every budgeted
// configuration plus one baseline per benchmark, on every benchmark.
// It is the admission cap's measure and the job's progress total.
func (r OptimizeRequest) worstCase() int {
	return (r.Budget + 1) * len(r.Benchmarks) * r.Injections
}

// SubmitOptimize normalizes and hashes a search request, then admits
// its job exactly as Submit admits a campaign's.
func (s *Server) SubmitOptimize(req OptimizeRequest) (*job, bool, error) {
	j, err := s.optimizeJob(req)
	if err != nil {
		return nil, false, err
	}
	return s.admit(j)
}

// optimizeJob validates a request and builds its job: the spec carries
// the run ID and the fault config every evaluation runs under.
func (s *Server) optimizeJob(req OptimizeRequest) (*job, error) {
	req, err := s.normalizeOptimize(req)
	if err != nil {
		return nil, err
	}
	fc := s.cfg.BaseFault
	fc.Injections = req.Injections
	// The request's identity: the canonical request, the fault config
	// every evaluation runs under, and the source revision.
	id := hashJSON(struct {
		Req    OptimizeRequest `json:"req"`
		Fault  any             `json:"fault"`
		Commit string          `json:"commit"`
	}{req, fc, s.cfg.GitCommit})
	spec := campaign.Spec{RunID: "opt-" + id[:12], Fault: fc}
	return newJob(id, spec, &req, filepath.Join(s.cfg.Root, id)), nil
}

// normalizeOptimize validates and canonicalizes a request: workload
// and scheme specs expand through their registries, params go through
// search.CanonicalParams, defaults fill in, and every benchmark ×
// base-scheme cell must resolve through the factory. The canonical
// form is what gets hashed, so equivalent requests share a job.
func (s *Server) normalizeOptimize(req OptimizeRequest) (OptimizeRequest, error) {
	benches, err := workload.ExpandSpecs(req.Benchmarks)
	if err != nil {
		return req, wrapBadSpec(err)
	}
	if len(benches) == 0 {
		return req, errBadSpec("optimize request has no benchmarks")
	}
	req.Benchmarks = benches
	var base []scheme.Spec
	var schemes []string
	for _, raw := range req.Schemes {
		specs, err := scheme.Expand(raw)
		if err != nil {
			return req, wrapBadSpec(err)
		}
		for _, sp := range specs {
			if sp == campaign.BaselineSpec {
				continue // baselines are implicit pairing bases, not searchable
			}
			schemes = append(schemes, sp.String())
			base = append(base, sp)
		}
	}
	if len(base) == 0 {
		return req, errBadSpec("optimize request has no non-baseline schemes")
	}
	req.Schemes = schemes
	w, err := search.ParseWeights(req.Weights)
	if err != nil {
		return req, wrapBadSpec(err)
	}
	req.Weights = w.String()
	if req.Params, err = search.CanonicalParams(base, req.Params); err != nil {
		return req, wrapBadSpec(err)
	}
	if req.Budget <= 0 {
		req.Budget = DefaultOptimizeBudget
	}
	if req.Injections <= 0 {
		req.Injections = s.cfg.BaseFault.Injections
	}
	fc := s.cfg.BaseFault
	fc.Injections = req.Injections
	if err := fc.Validate(); err != nil {
		return req, wrapBadSpec(err)
	}
	// Resolve every cell up front so an unknown bench or scheme is a
	// 400 at submit time, not a failed search later.
	for _, bm := range req.Benchmarks {
		for _, sp := range base {
			if _, err := s.cfg.Factory(bm, sp); err != nil {
				return req, wrapBadSpec(err)
			}
		}
	}
	// The same admission cap campaigns get, against the worst case.
	if max := s.cfg.MaxInjections; max > 0 && req.worstCase() > max {
		return req, errBadSpec(fmt.Sprintf(
			"optimize wants up to %d injections, limit is %d", req.worstCase(), max))
	}
	return req, nil
}

// runOptimize is an optimize job's execute step: the Pareto search
// through the campaign evaluator, under the runners' context, with
// cumulative progress against the admission worst case. The search is
// deterministic, so a rerun after a drain writes the same bytes.
func (s *Server) runOptimize(j *job) error {
	req := *j.opt
	base := make([]scheme.Spec, len(req.Schemes))
	for i, raw := range req.Schemes {
		base[i] = scheme.FromString(raw) // canonical since normalization
	}
	weights, err := search.ParseWeights(req.Weights)
	if err != nil {
		return err
	}
	done, total := 0, req.worstCase()
	ev := &campaign.Evaluator{
		Factory:  s.cfg.Factory,
		Fault:    j.spec.Fault,
		Workers:  s.cfg.Workers,
		Timing:   s.cfg.Timing,
		Prepared: s.prepared,
		// The engine serializes its Progress calls, one per injection.
		Progress: func(int, int) {
			done++
			j.progress(done, total)
			s.mInjections.Inc()
		},
	}
	cfg := search.Config{
		Seed:    req.Seed,
		Budget:  req.Budget,
		Weights: weights,
		Base:    base,
		Params:  req.Params,
		Eval:    search.CampaignEval(ev, req.Benchmarks),
		Log: func(format string, args ...any) {
			s.log.Debug(fmt.Sprintf(format, args...))
		},
	}
	res, err := search.Run(s.runCtx, cfg)
	if err != nil {
		return err
	}
	return search.NewReport(j.spec.RunID, req.Benchmarks, cfg, res).WriteArtifacts(j.dir)
}

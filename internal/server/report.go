package server

import (
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"faulthound/internal/contract"
	"faulthound/internal/fault"
	"faulthound/internal/pipeline"
	"faulthound/internal/report"
)

// reportMu single-flights sidecar generation: two concurrent report
// requests for the same fresh bundle must not both replay it. The
// critical section re-checks the cache, so losers serve the winner's
// files.
var reportMu sync.Mutex

// handleReport serves a completed job's detector-quality report
// (docs/OBSERVABILITY.md "Quality reports"): quality.json by default,
// quality.md with ?format=md. The report is a derived sidecar under
// <bundle>/report/ — generated on first request (replaying detected
// injections through the shared prepared cache for latencies) and
// served from disk afterwards, exactly the files fhreport bundle
// writes. 409 unless the job is a done campaign: the report is a pure
// function of a complete campaign bundle.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state != StateDone || !hasManifest(j.dir) {
		writeError(w, http.StatusConflict, "job is "+state+"; the quality report needs a complete campaign bundle")
		return
	}

	name := contract.QualityJSONName
	ctype := "application/json"
	if r.URL.Query().Get("format") == "md" {
		name = contract.QualityMDName
		ctype = "text/markdown; charset=utf-8"
	}
	path := filepath.Join(j.dir, contract.ReportDirName, name)
	if _, err := os.Stat(path); err != nil {
		if err := s.generateReport(j); err != nil {
			writeError(w, http.StatusInternalServerError, "generating report: "+err.Error())
			return
		}
	}
	w.Header().Set("Content-Type", ctype)
	http.ServeFile(w, r, path)
}

// generateReport writes a job bundle's report sidecar, sharing the
// daemon's golden-preparation cache with the campaign engine.
func (s *Server) generateReport(j *job) error {
	reportMu.Lock()
	defer reportMu.Unlock()
	if _, err := os.Stat(filepath.Join(j.dir, contract.ReportDirName, contract.QualityJSONName)); err == nil {
		return nil // lost the race; the winner's sidecar serves
	}
	// The job's own spec, not the manifest: the manifest's fault config
	// drops the execution-strategy fields, so its PreparedKey would
	// never match the golden state the engine left in the cache.
	rep := &report.Replayer{
		Factory: s.cfg.Factory,
		Fault:   j.spec.Fault,
		Prepare: func(bench, schemeSpec string, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error) {
			return s.prepared.Get(fault.PreparedKey{Bench: bench, Scheme: schemeSpec, Cfg: cfg}, mk)
		},
	}
	q, err := report.Generate(j.dir, report.Options{Latency: rep})
	if err != nil {
		return err
	}
	_, _, err = report.WriteFiles(j.dir, q)
	return err
}

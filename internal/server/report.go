package server

import (
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"faulthound/internal/contract"
	"faulthound/internal/report"
)

// reportMu single-flights sidecar generation: two concurrent report
// requests for the same fresh bundle must not both generate it. The
// critical section re-checks the sidecar, so losers serve the winner's
// files.
var reportMu sync.Mutex

// handleReport serves a completed job's detector-quality report
// (docs/OBSERVABILITY.md "Quality reports"): quality.json by default,
// quality.md with ?format=md. The report is a derived sidecar under
// <bundle>/report/ — generated from the bundle's files on first
// request and served from disk afterwards, exactly the files fhreport
// bundle writes. 409 unless the job is a done campaign: the report is
// a pure function of a complete campaign bundle.
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
		if err := generateReport(j.dir); err != nil {
			writeError(w, http.StatusInternalServerError, "generating report: "+err.Error())
			return
		}
	}
	w.Header().Set("Content-Type", ctype)
	http.ServeFile(w, r, path)
}

// generateReport writes a bundle's report sidecar unless both of its
// files exist. report.WriteDir renames each file into place, so a file
// that exists is whole.
func generateReport(dir string) error {
	reportMu.Lock()
	defer reportMu.Unlock()
	rdir := filepath.Join(dir, contract.ReportDirName)
	_, errJSON := os.Stat(filepath.Join(rdir, contract.QualityJSONName))
	_, errMD := os.Stat(filepath.Join(rdir, contract.QualityMDName))
	if errJSON == nil && errMD == nil {
		return nil // lost the race; the winner's sidecar serves
	}
	q, err := report.Generate(dir, report.Options{})
	if err != nil {
		return err
	}
	_, _, err = report.WriteFiles(dir, q)
	return err
}

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"faulthound/internal/buildinfo"
	"faulthound/internal/campaign"
	"faulthound/internal/scheme"
	"faulthound/internal/wgen"
	"faulthound/internal/workload"
)

// bundleFiles is the whitelist the bundle endpoint serves — exactly
// the artifact sets the two job kinds write (the daemon's status file
// is deliberately excluded).
var bundleFiles = append([]string{
	campaign.ManifestName,
	campaign.JournalName,
	campaign.ResultsName,
	campaign.SummaryName,
	campaign.ReportName,
}, paretoFiles...)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/campaigns              submit a spec (202 new, 200 dedup/cache hit)
//	GET  /v1/campaigns              list jobs
//	GET  /v1/campaigns/{id}         job status
//	GET  /v1/campaigns/{id}/events  progress stream (JSONL, or SSE via Accept)
//	GET  /v1/campaigns/{id}/bundle/ bundle file list; append a file name to fetch it
//	GET  /v1/campaigns/{id}/report  detector-quality report (?format=md for markdown)
//	GET  /v1/jobs/{id}/report       alias of the campaign report route
//	POST /v1/optimize               submit a Pareto search job (docs/OPTIMIZE.md); answers as above
//	GET  /v1/schemes                scheme registry metadata (names, parameters)
//	GET  /v1/workloads              workload catalogue (benchmarks + generators)
//	GET  /metrics                   Prometheus text format
//	GET  /healthz                   liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/bundle/", s.handleBundleIndex)
	mux.HandleFunc("GET /v1/campaigns/{id}/bundle/{file}", s.handleBundleFile)
	mux.HandleFunc("GET /v1/campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz reports liveness plus identity: the daemon's cluster
// role, build info, and readiness (200 ready, 503 not — load-balancer
// and smoke-test friendly). Config.Ready supplies the verdict and any
// role-specific detail (live worker count, joined state).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	role := s.cfg.Role
	if role == "" {
		role = "single"
	}
	ready := true
	var detail map[string]any
	if s.cfg.Ready != nil {
		ready, detail = s.cfg.Ready()
	}
	body := map[string]any{
		"status":         "ok",
		"ready":          ready,
		"role":           role,
		"go":             runtime.Version(),
		"commit":         s.cfg.GitCommit,
		"version":        buildinfo.Resolve().Version,
		"generator":      buildinfo.Generator(),
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
	}
	code := http.StatusOK
	if !ready {
		body["status"] = "unavailable"
		code = http.StatusServiceUnavailable
	}
	for k, v := range detail {
		body[k] = v
	}
	writeJSON(w, code, body)
}

// reject429 answers an admission-gate rejection: Retry-After header,
// machine-readable JSON body, and the labeled reject counter.
func (s *Server) reject429(w http.ResponseWriter, reason, msg string, retry time.Duration) {
	s.rejectAdmission(reason)
	secs := int(retry / time.Second)
	if retry%time.Second != 0 || secs < 1 {
		secs++ // round up; Retry-After is integer seconds and 0 is useless
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":               msg,
		"reason":              reason,
		"retry_after_seconds": secs,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := campaign.MarshalJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	s.serveSubmit(w, r, &spec, func() (*job, bool, error) { return s.Submit(spec) })
}

// handleOptimize submits a Pareto search job (docs/OPTIMIZE.md); a
// daemon without a timing runner cannot score overheads and answers 503.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Timing == nil {
		writeError(w, http.StatusServiceUnavailable, "optimizer unavailable: daemon has no timing runner")
		return
	}
	var req OptimizeRequest
	s.serveSubmit(w, r, &req, func() (*job, bool, error) { return s.SubmitOptimize(req) })
}

// serveSubmit is the front door both POST routes share: a strict
// decode of the body into v, submit, and one answer mapping.
func (s *Server) serveSubmit(w http.ResponseWriter, r *http.Request, v any, submit func() (*job, bool, error)) {
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request JSON: "+err.Error())
		return
	}
	j, hit, err := submit()
	switch {
	case err == nil:
	case isBadSpec(err):
		// Unknown or malformed specs get the structured form: the
		// error plus the matching registry's name list, so a client
		// can correct the submission without a round trip to the docs.
		if scheme.IsSpecError(err) {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error":         err.Error(),
				"known_schemes": scheme.Names(),
			})
			return
		}
		if wgen.IsSpecError(err) {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error":           err.Error(),
				"known_workloads": workload.AllNames(),
			})
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	case isQueueFull(err):
		s.reject429(w, "queue_full", err.Error(), 5*time.Second)
		return
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	st := j.status()
	st.CacheHit = hit
	code := http.StatusAccepted
	if hit {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// decodeStrict decodes one JSON request body. Unknown fields are
// errors, so a misspelled knob is a 400 rather than a silent default.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

// handleSchemes serves the self-describing registry metadata: every
// scheme name with its help line and typed parameter list.
func (s *Server) handleSchemes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"schemes": scheme.All()})
}

// handleWorkloads serves the workload catalogue: the fixed benchmarks
// as parameterless entries, then the generated-workload registry with
// its typed parameter lists.
func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workloads": workload.Catalogue()})
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleEvents streams job progress until the job reaches a terminal
// state (or the client goes away). Plain JSONL by default; SSE frames
// when the client asks for text/event-stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	send := func(ev Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", b)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", b)
		}
		if err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	ch, cancel := j.subscribe()
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			if !send(ev) {
				return
			}
		case <-j.doneCh:
			// Drain anything buffered, then emit the final snapshot so
			// the last line a client reads is the terminal state even if
			// lossy progress events were dropped.
			for {
				select {
				case ev := <-ch:
					if !send(ev) {
						return
					}
					continue
				default:
				}
				break
			}
			send(j.event("state"))
			return
		}
	}
}

func (s *Server) handleBundleIndex(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	var files []string
	for _, f := range bundleFiles {
		if _, err := os.Stat(filepath.Join(j.dir, f)); err == nil {
			files = append(files, f)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": j.id, "files": files})
}

func (s *Server) handleBundleFile(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	name := r.PathValue("file")
	ok := false
	for _, f := range bundleFiles {
		if name == f {
			ok = true
			break
		}
	}
	if !ok {
		writeError(w, http.StatusNotFound, "not a bundle file")
		return
	}
	path := filepath.Join(j.dir, name)
	if _, err := os.Stat(path); err != nil {
		writeError(w, http.StatusNotFound, "artifact not written yet")
		return
	}
	http.ServeFile(w, r, path)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.scrape()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

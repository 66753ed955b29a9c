package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"faulthound/internal/contract"
)

// TestReportEndpoint covers the quality-report route end to end: 404
// for unknown jobs, 200 with contract-valid quality.json for a
// completed job, the markdown variant, and the on-disk sidecar cache
// (the second request serves the first request's files, and a missing
// quality.md is rebuilt). The report reads the bundle's files only:
// generating it must not touch the prepared cache.
func TestReportEndpoint(t *testing.T) {
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	if code, _ := get(ts.URL + "/v1/jobs/nope/report"); code != http.StatusNotFound {
		t.Fatalf("unknown job: got %d, want 404", code)
	}

	j, _, err := s.Submit(testSpec(12))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 2*time.Minute)

	hits, misses := s.prepared.Stats()
	code, body := get(ts.URL + "/v1/jobs/" + j.id + "/report")
	if code != http.StatusOK {
		t.Fatalf("report: got %d: %s", code, body)
	}
	if h, m := s.prepared.Stats(); m != misses || h != hits {
		t.Errorf("report: prepared cache hits %d -> %d, misses %d -> %d; want neither", hits, h, misses, m)
	}
	if err := contract.ValidateJSON(contract.KindQuality, body); err != nil {
		t.Fatalf("served report violates its contract: %v", err)
	}

	sidecar := filepath.Join(j.dir, contract.ReportDirName, contract.QualityJSONName)
	cached, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatalf("no sidecar persisted: %v", err)
	}
	if string(cached) != string(body) {
		t.Error("served report differs from the persisted sidecar")
	}

	// The alias route and the cached second hit serve identical bytes.
	code, again := get(ts.URL + "/v1/campaigns/" + j.id + "/report")
	if code != http.StatusOK || string(again) != string(body) {
		t.Fatalf("alias route: code %d, bytes match %v", code, string(again) == string(body))
	}

	code, md := get(ts.URL + "/v1/jobs/" + j.id + "/report?format=md")
	if code != http.StatusOK {
		t.Fatalf("markdown report: got %d", code)
	}
	if !strings.HasPrefix(string(md), "# Detector Quality Report") {
		t.Fatalf("markdown report does not render: %.80s", md)
	}

	// A sidecar missing quality.md (a deletion, or a crash between the
	// two writes) is rebuilt, not answered with 404.
	if err := os.Remove(filepath.Join(j.dir, contract.ReportDirName, contract.QualityMDName)); err != nil {
		t.Fatal(err)
	}
	code, rebuilt := get(ts.URL + "/v1/jobs/" + j.id + "/report?format=md")
	if code != http.StatusOK || string(rebuilt) != string(md) {
		t.Fatalf("markdown report after deleting quality.md: code %d, bytes match %v", code, string(rebuilt) == string(md))
	}
}

package campaign

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"faulthound/internal/buildinfo"
)

// Provenance stamps an artifact bundle with what produced it: the run
// ID, the toolchain, and the source revision. It is embedded in
// manifest.json and echoed by report.md so every number in the bundle
// is traceable.
type Provenance struct {
	RunID     string `json:"run_id"`
	CreatedAt string `json:"created_at"` // RFC 3339, UTC
	GoVersion string `json:"go_version"`
	GitCommit string `json:"git_commit"` // "unknown" outside a git checkout
	// Generator identifies the producing binary ("faulthound/<version>
	// (<commit>)", internal/buildinfo). Optional: bundles predating it
	// (reference-1k) omit the field, and readers render "unknown".
	Generator string `json:"generator,omitempty"`
}

// NewProvenance stamps a bundle with the current toolchain, source
// revision, and wall-clock time.
func NewProvenance(runID string) Provenance {
	return Provenance{
		RunID:     runID,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GitCommit: GitCommit(),
		Generator: buildinfo.Generator(),
	}
}

// DefaultRunID returns a timestamp-based run identifier, unique at
// one-second granularity (the exemplar bundle format's convention).
func DefaultRunID() string {
	return time.Now().UTC().Format("2006-01-02T15-04-05Z")
}

// GitCommit resolves HEAD, or "unknown" when git or the checkout is
// unavailable. Besides provenance stamping, the campaign-serving
// daemon folds it into spec hashes so cached results never cross
// source revisions.
func GitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// MarshalJSON renders v as stable, indented JSON with a trailing
// newline — the one marshaling every artifact and the fhsim -json
// output share.
func MarshalJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteJSONFile marshals v with MarshalJSON into path, creating parent
// directories, and writes it with WriteFile.
func WriteJSONFile(path string, v any) error {
	b, err := MarshalJSON(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return WriteFile(path, b)
}

// WriteFile writes an artifact by write-then-rename: data goes to a
// temporary file in path's directory, which is then renamed over path.
// A reader, or a process killed mid-write, sees the old file or the
// new one, never a truncated one. Every artifact write goes through
// it; the append-only journal is the exception. Like the journal it
// does not fsync: it guards against a killed process, not a lost
// machine.
func WriteFile(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp creates 0600; artifacts are shared
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

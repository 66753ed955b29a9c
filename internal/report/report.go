// Package report derives detector-quality reports from campaign
// artifact bundles: per benchmark×scheme cell, the outcome
// classification, SDC detection coverage, false-positive rate,
// detection-latency percentiles, and a confusion matrix of the cell's
// outcomes against the baseline cell's golden classification of the
// same injection descriptors (the replay-vs-golden comparison framing
// of RepTFD, PAPERS.md). Reports are derived sidecars written under
// <bundle>/report/ — generating one never mutates the bundle's own
// artifacts — and quality.json conforms to the faulthound.quality/v1
// contract (internal/contract, docs/CONTRACTS.md).
//
// Detection latency is recorded at campaign time: every detected
// injection's journal record carries fault.Result.DetectLatency, and
// the report reads it back from journal.jsonl. The report is a pure
// function of the bundle's files — the golden test and the CI drift
// gate depend on that — and simulator drift is caught by re-running
// the campaign, not the report.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"faulthound/internal/campaign"
	"faulthound/internal/contract"
	"faulthound/internal/fault"
	"faulthound/internal/pipeline"
)

// Outcomes is a Figure-7 classification triple.
type Outcomes struct {
	Masked int `json:"masked"`
	Noisy  int `json:"noisy"`
	SDC    int `json:"sdc"`
}

// Coverage echoes the summary's paired SDC coverage.
type Coverage struct {
	SDCBase  int     `json:"sdc_base"`
	Covered  int     `json:"covered"`
	Coverage float64 `json:"coverage"`
}

// Latency summarizes a cell's detection latencies in cycles
// (injection to first detector action), nearest-rank percentiles over
// the journaled samples plus a cumulative power-of-two histogram.
type Latency struct {
	Count int    `json:"count"`
	P50   uint64 `json:"p50"`
	P95   uint64 `json:"p95"`
	Max   uint64 `json:"max"`
	// Hist is the cumulative bucket distribution: Hist[i].Count
	// samples had latency <= Hist[i].Le cycles, with Le doubling from
	// 1 up to the first power of two covering Max (so the last bucket
	// always equals Count). Optional in the quality.v1 contract:
	// pre-histogram reports stay valid.
	Hist []HistBucket `json:"histogram,omitempty"`
}

// HistBucket is one cumulative detection-latency bucket.
type HistBucket struct {
	Le    uint64 `json:"le"`
	Count int    `json:"count"`
}

// Confusion is the 3×3 outcome matrix of a scheme cell against its
// benchmark's baseline cell: Confusion[baseline outcome][scheme
// outcome] over the shared descriptor stream. Row sums reproduce the
// baseline cell's classification, column sums the scheme cell's.
type Confusion struct {
	Masked Outcomes `json:"masked"`
	Noisy  Outcomes `json:"noisy"`
	SDC    Outcomes `json:"sdc"`
}

// CellQuality is one benchmark×scheme cell of the quality report.
type CellQuality struct {
	Bench    string   `json:"bench"`
	Scheme   string   `json:"scheme"`
	Outcomes Outcomes `json:"outcomes"`
	Detected int      `json:"detected"`
	FPRate   float64  `json:"fp_rate"`
	// Coverage and Confusion are present on scheme cells only — both
	// are defined against the benchmark's baseline cell.
	Coverage *Coverage `json:"coverage,omitempty"`
	// Latency is present when the cell detected faults and the journal
	// carries every one's latency.
	Latency   *Latency   `json:"detection_latency_cycles,omitempty"`
	Confusion *Confusion `json:"confusion,omitempty"`
}

// Source is the bundle provenance echoed into the report.
type Source struct {
	CreatedAt string `json:"created_at"`
	GoVersion string `json:"go_version"`
	GitCommit string `json:"git_commit"`
}

// Quality is the report/quality.json artifact.
type Quality struct {
	SchemaVersion string        `json:"schema_version"`
	RunID         string        `json:"run_id"`
	Generator     string        `json:"generator"`
	Source        Source        `json:"source"`
	Injections    int           `json:"injections_per_cell"`
	Cells         []CellQuality `json:"cells"`
}

// Options parameterizes Generate.
//
// Deprecated: Generate reads everything it needs from the bundle and
// ignores Options. It remains only for callers that still pass it.
type Options struct {
	// Latency is ignored.
	//
	// Deprecated: latency comes from the bundle's journal.
	Latency *Replayer
}

// Replayer is inert: detection latency is recorded at campaign time,
// not replayed.
//
// Deprecated: Generate ignores it. It remains only for callers that
// still set its hooks, which are never called.
type Replayer struct {
	Prepare func(bench, schemeSpec string, mk func() *pipeline.Core, cfg fault.Config) (*fault.Prepared, error)
	Outcome func(bench, schemeSpec string, index int, outcome string)
}

// NewReplayer returns an inert Replayer.
//
// Deprecated: see Replayer.
func NewReplayer(*campaign.Manifest, campaign.CoreFactory) *Replayer { return &Replayer{} }

// row is one parsed results.csv line (the columns the report needs).
type row struct {
	index    int
	outcome  string
	detected bool
}

// Generate builds the quality report of a campaign bundle from its
// manifest.json, summary.json, results.csv and journal.jsonl. It is a
// pure function of those files, so regenerating a committed bundle's
// report must be byte-identical — the CI drift gate enforces exactly
// that.
func Generate(dir string, _ Options) (*Quality, error) {
	man, err := campaign.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	sumB, err := os.ReadFile(filepath.Join(dir, campaign.SummaryName))
	if err != nil {
		return nil, err
	}
	if err := contract.ValidateJSON(contract.KindSummary, sumB); err != nil {
		return nil, err
	}
	var sum campaign.Summary
	if err := json.Unmarshal(sumB, &sum); err != nil {
		return nil, fmt.Errorf("report: %s: %w", campaign.SummaryName, err)
	}
	cells, err := readResults(filepath.Join(dir, campaign.ResultsName))
	if err != nil {
		return nil, err
	}
	lats, err := journalLatencies(filepath.Join(dir, campaign.JournalName))
	if err != nil {
		return nil, err
	}

	gen := man.Provenance.Generator
	if gen == "" {
		gen = "unknown"
	}
	q := &Quality{
		SchemaVersion: contract.QualityV1,
		RunID:         sum.RunID,
		Generator:     gen,
		Source: Source{
			CreatedAt: man.Provenance.CreatedAt,
			GoVersion: man.Provenance.GoVersion,
			GitCommit: man.Provenance.GitCommit,
		},
		Injections: sum.Injections,
	}

	for _, cs := range sum.Cells {
		key := cellKey{cs.Bench, cs.Scheme}
		rows := cells[key]
		if len(rows) != sum.Injections {
			return nil, fmt.Errorf("report: cell %s/%s has %d results.csv rows, summary says %d",
				cs.Bench, cs.Scheme, len(rows), sum.Injections)
		}
		cq := CellQuality{
			Bench:    cs.Bench,
			Scheme:   cs.Scheme,
			Outcomes: Outcomes{Masked: cs.Masked, Noisy: cs.Noisy, SDC: cs.SDC},
			Detected: cs.Detected,
			FPRate:   cs.FPRate,
		}
		if cs.Coverage != nil {
			cq.Coverage = &Coverage{
				SDCBase:  cs.Coverage.SDCBase,
				Covered:  cs.Coverage.Covered,
				Coverage: cs.Coverage.Coverage,
			}
		}
		if cs.Scheme != campaign.BaselineScheme {
			base := cells[cellKey{cs.Bench, campaign.BaselineScheme}]
			if len(base) != sum.Injections {
				return nil, fmt.Errorf("report: cell %s/%s has no complete baseline cell to pair against", cs.Bench, cs.Scheme)
			}
			cq.Confusion = confusion(base, rows)
		}
		if samples := cellLatencies(key, rows, lats); len(samples) > 0 {
			cq.Latency = summarizeLatency(samples)
		}
		q.Cells = append(q.Cells, cq)
	}
	return q, nil
}

type cellKey struct{ bench, scheme string }

// readResults parses results.csv into per-cell rows ordered by
// descriptor index, after checking the column contract.
func readResults(path string) (map[cellKey][]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := contract.ValidateResultsCSV(f); err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}

	cols := map[string]int{}
	for i, name := range contract.ResultsColumns() {
		cols[name] = i
	}
	cr := csv.NewReader(f)
	if _, err := cr.Read(); err != nil { // header, already validated
		return nil, err
	}
	out := map[cellKey][]row{}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		idx, _ := strconv.Atoi(rec[cols["index"]])
		key := cellKey{rec[cols["bench"]], rec[cols["scheme"]]}
		out[key] = append(out[key], row{
			index:    idx,
			outcome:  rec[cols["outcome"]],
			detected: rec[cols["detected"]] == "true",
		})
	}
	for key, rows := range out {
		sort.Slice(rows, func(i, j int) bool { return rows[i].index < rows[j].index })
		out[key] = rows
	}
	return out, nil
}

// injKey names one injection of one cell.
type injKey struct {
	cellKey
	index int
}

// journalLatencies reads the detection latency each journaled result
// carries, keyed by injection. A missing journal yields none.
func journalLatencies(path string) (map[injKey]uint64, error) {
	recs, err := campaign.ReadJournal(path)
	if err != nil {
		return nil, err
	}
	out := map[injKey]uint64{}
	for _, r := range recs {
		if r.Kind == "result" && r.Result != nil && r.Result.DetectLatency != 0 {
			out[injKey{cellKey{r.Bench, r.Scheme}, r.Index}] = r.Result.DetectLatency
		}
	}
	return out, nil
}

// cellLatencies returns the journaled latencies of a cell's detected
// rows, or nil when any detected row has none (a journal written
// before latency was recorded): a partial sample would misstate the
// percentiles.
func cellLatencies(key cellKey, rows []row, lats map[injKey]uint64) []uint64 {
	var out []uint64
	for _, r := range rows {
		if !r.detected {
			continue
		}
		lat, ok := lats[injKey{key, r.index}]
		if !ok {
			return nil
		}
		out = append(out, lat)
	}
	return out
}

// confusion tallies scheme outcomes against baseline outcomes over the
// shared descriptor indices. Both slices are index-ordered and equal
// length (Generate checks).
func confusion(base, scheme []row) *Confusion {
	var m Confusion
	rowFor := func(outcome string) *Outcomes {
		switch outcome {
		case "masked":
			return &m.Masked
		case "noisy":
			return &m.Noisy
		}
		return &m.SDC
	}
	for i := range base {
		r := rowFor(base[i].outcome)
		switch scheme[i].outcome {
		case "masked":
			r.Masked++
		case "noisy":
			r.Noisy++
		default:
			r.SDC++
		}
	}
	return &m
}

// summarizeLatency computes nearest-rank percentiles over the samples.
func summarizeLatency(samples []uint64) *Latency {
	s := append([]uint64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(q float64) uint64 {
		i := int(q*float64(len(s))+0.999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	lat := &Latency{
		Count: len(s),
		P50:   rank(0.50),
		P95:   rank(0.95),
		Max:   s[len(s)-1],
	}
	// Cumulative power-of-two buckets over the sorted samples: each
	// boundary's count is the index of the first sample above it.
	idx := 0
	for le := uint64(1); ; le <<= 1 {
		for idx < len(s) && s[idx] <= le {
			idx++
		}
		lat.Hist = append(lat.Hist, HistBucket{Le: le, Count: idx})
		if le >= lat.Max {
			break
		}
	}
	return lat
}

// WriteFiles renders q into dir's report/ sidecar directory —
// quality.json (contract faulthound.quality/v1) and quality.md — and
// returns their paths. It validates the JSON against the contract
// before writing: a generator bug must not ship a non-conforming
// artifact.
func WriteFiles(dir string, q *Quality) (jsonPath, mdPath string, err error) {
	return WriteDir(filepath.Join(dir, contract.ReportDirName), q)
}

// WriteDir renders q's quality.json and quality.md into exactly rdir
// (fhreport bundle -out redirects the sidecar outside the bundle, e.g.
// for the CI drift gate's regenerate-and-compare).
func WriteDir(rdir string, q *Quality) (jsonPath, mdPath string, err error) {
	b, err := campaign.MarshalJSON(q)
	if err != nil {
		return "", "", err
	}
	if err := contract.ValidateJSON(contract.KindQuality, b); err != nil {
		return "", "", fmt.Errorf("report: generated quality.json violates its own contract: %w", err)
	}
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return "", "", err
	}
	jsonPath = filepath.Join(rdir, contract.QualityJSONName)
	mdPath = filepath.Join(rdir, contract.QualityMDName)
	if err := campaign.WriteFile(jsonPath, b); err != nil {
		return "", "", err
	}
	if err := campaign.WriteFile(mdPath, []byte(Markdown(q))); err != nil {
		return "", "", err
	}
	return jsonPath, mdPath, nil
}

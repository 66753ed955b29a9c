package report

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"faulthound/internal/campaign"
	"faulthound/internal/contract"
	"faulthound/internal/harness"
)

const referenceBundle = "../../results/campaigns/reference-1k"

// reference1kQuality generates the reference bundle's quality report.
func reference1kQuality(t *testing.T) *Quality {
	t.Helper()
	q, err := Generate(referenceBundle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestReference1kGolden regenerates the committed reference bundle's
// report sidecar and requires byte identity with the committed files:
// the report is a pure function of the bundle's files. (Simulator
// drift is the reproduction gate's job: make gates re-runs the
// campaign.)
func TestReference1kGolden(t *testing.T) {
	q := reference1kQuality(t)
	out := t.TempDir()
	jsonPath, mdPath, err := WriteDir(out, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{
		{jsonPath, filepath.Join(referenceBundle, contract.ReportDirName, contract.QualityJSONName)},
		{mdPath, filepath.Join(referenceBundle, contract.ReportDirName, contract.QualityMDName)},
	} {
		got, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s drifted from committed golden %s:\n--- got ---\n%s\n--- want ---\n%s",
				pair[0], pair[1], got, want)
		}
	}
}

// TestQualityInternalConsistency cross-checks the derived report
// against the bundle's own summary: outcomes echo the summary cells,
// confusion rows sum to the baseline classification and columns to the
// scheme's, and every detection has a latency sample.
func TestQualityInternalConsistency(t *testing.T) {
	q := reference1kQuality(t)
	if q.SchemaVersion != contract.QualityV1 {
		t.Errorf("schema_version = %q", q.SchemaVersion)
	}
	if q.RunID != "reference-1k" || q.Injections != 250 || len(q.Cells) != 4 {
		t.Fatalf("unexpected header: %+v", q)
	}
	base := map[string]Outcomes{}
	for _, c := range q.Cells {
		if c.Scheme == campaign.BaselineScheme {
			base[c.Bench] = c.Outcomes
			if c.Coverage != nil || c.Confusion != nil {
				t.Errorf("%s/baseline carries scheme-only sections", c.Bench)
			}
		}
	}
	for _, c := range q.Cells {
		total := c.Outcomes.Masked + c.Outcomes.Noisy + c.Outcomes.SDC
		if total != q.Injections {
			t.Errorf("%s/%s outcomes sum to %d, want %d", c.Bench, c.Scheme, total, q.Injections)
		}
		if c.Scheme == campaign.BaselineScheme {
			continue
		}
		if c.Confusion == nil {
			t.Errorf("%s/%s has no confusion matrix", c.Bench, c.Scheme)
			continue
		}
		rowSums := Outcomes{
			Masked: c.Confusion.Masked.Masked + c.Confusion.Masked.Noisy + c.Confusion.Masked.SDC,
			Noisy:  c.Confusion.Noisy.Masked + c.Confusion.Noisy.Noisy + c.Confusion.Noisy.SDC,
			SDC:    c.Confusion.SDC.Masked + c.Confusion.SDC.Noisy + c.Confusion.SDC.SDC,
		}
		if rowSums != base[c.Bench] {
			t.Errorf("%s/%s confusion rows sum to %+v, baseline classified %+v", c.Bench, c.Scheme, rowSums, base[c.Bench])
		}
		colSums := Outcomes{
			Masked: c.Confusion.Masked.Masked + c.Confusion.Noisy.Masked + c.Confusion.SDC.Masked,
			Noisy:  c.Confusion.Masked.Noisy + c.Confusion.Noisy.Noisy + c.Confusion.SDC.Noisy,
			SDC:    c.Confusion.Masked.SDC + c.Confusion.Noisy.SDC + c.Confusion.SDC.SDC,
		}
		if colSums != c.Outcomes {
			t.Errorf("%s/%s confusion columns sum to %+v, cell classified %+v", c.Bench, c.Scheme, colSums, c.Outcomes)
		}
		if c.Detected > 0 {
			if c.Latency == nil {
				t.Errorf("%s/%s detected %d but has no latency section", c.Bench, c.Scheme, c.Detected)
			} else if c.Latency.Count != c.Detected {
				t.Errorf("%s/%s has %d latency samples for %d detections", c.Bench, c.Scheme, c.Latency.Count, c.Detected)
			} else if c.Latency.P50 > c.Latency.P95 || c.Latency.P95 > c.Latency.Max {
				t.Errorf("%s/%s percentiles unordered: %+v", c.Bench, c.Scheme, c.Latency)
			}
		}
	}
}

// TestSelfDiffIsEmpty is the acceptance criterion for fhreport diff: a
// report diffed against itself has zero deltas.
func TestSelfDiffIsEmpty(t *testing.T) {
	q := reference1kQuality(t)
	if deltas := Diff(q, q); len(deltas) != 0 {
		t.Fatalf("self-diff produced %d deltas: %v", len(deltas), deltas)
	}
}

// TestDiffFindsChanges perturbs a copy and checks Diff pinpoints every
// change, with Exceeds honoring the tolerance.
func TestDiffFindsChanges(t *testing.T) {
	a := reference1kQuality(t)
	b := *a
	b.Cells = append([]CellQuality(nil), a.Cells...)
	for i := range b.Cells {
		if b.Cells[i].Scheme != campaign.BaselineScheme {
			cq := b.Cells[i]
			cq.FPRate *= 1.05 // +5%
			cq.Detected++
			b.Cells[i] = cq
			break
		}
	}
	deltas := Diff(&b, a)
	if len(deltas) != 2 {
		t.Fatalf("want 2 deltas, got %v", deltas)
	}
	names := map[string]bool{}
	for _, d := range deltas {
		names[d.Metric] = true
	}
	if !names["fp_rate"] || !names["detected"] {
		t.Fatalf("wrong metrics flagged: %v", deltas)
	}
	// 10% tolerance forgives the 5% fp_rate drift but never the integer
	// detection-count change (a +1 on 1 or 19 detections is >10%... use
	// a cell-agnostic check: the exceeding set must still name detected).
	over := Exceeds(deltas, 0.10)
	foundDetected := false
	for _, d := range over {
		if d.Metric == "fp_rate" {
			t.Errorf("10%% tolerance flagged the 5%% fp_rate drift: %v", d)
		}
		if d.Metric == "detected" {
			foundDetected = true
		}
	}
	if !foundDetected {
		t.Error("tolerance filtering dropped the detection-count change")
	}
	if got := Exceeds(deltas, 0); len(got) != len(deltas) {
		t.Errorf("zero tolerance kept %d of %d deltas", len(got), len(deltas))
	}
}

// TestDiffMissingCell checks one-sided cells surface as deltas rather
// than being silently skipped.
func TestDiffMissingCell(t *testing.T) {
	a := reference1kQuality(t)
	b := *a
	b.Cells = a.Cells[:len(a.Cells)-1]
	deltas := Diff(a, &b)
	found := false
	for _, d := range deltas {
		if d.Metric == "cell" && math.IsNaN(d.B) {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing cell not reported: %v", deltas)
	}
	if len(Exceeds(deltas, 1e9)) == 0 {
		t.Error("missing cell passed under a huge tolerance")
	}
}

// TestSummarizeLatency pins the nearest-rank percentile convention and
// the cumulative power-of-two histogram (doubling boundaries from 1 up
// to the first power covering the max; last bucket equals the count).
func TestSummarizeLatency(t *testing.T) {
	l := summarizeLatency([]uint64{40, 10, 20, 30})
	want := Latency{Count: 4, P50: 20, P95: 40, Max: 40, Hist: []HistBucket{
		{Le: 1, Count: 0}, {Le: 2, Count: 0}, {Le: 4, Count: 0}, {Le: 8, Count: 0},
		{Le: 16, Count: 1}, {Le: 32, Count: 3}, {Le: 64, Count: 4},
	}}
	if !reflect.DeepEqual(*l, want) {
		t.Fatalf("got %+v, want %+v", *l, want)
	}
	l = summarizeLatency([]uint64{7})
	want = Latency{Count: 1, P50: 7, P95: 7, Max: 7, Hist: []HistBucket{
		{Le: 1, Count: 0}, {Le: 2, Count: 0}, {Le: 4, Count: 0}, {Le: 8, Count: 1},
	}}
	if !reflect.DeepEqual(*l, want) {
		t.Fatalf("got %+v, want %+v", *l, want)
	}
}

// TestCommaSpecBundleRoundTrip runs a cell whose scheme spec carries
// two parameters — and so a comma — through the engine, the bundle
// contract, and the report: results.csv must quote the spec so the row
// keeps its 16 columns and the report finds the cell.
func TestCommaSpecBundleRoundTrip(t *testing.T) {
	o := harness.QuickOptions()
	o.Fault.Injections = 12
	eng := &campaign.Engine{
		Spec: campaign.Spec{
			Benchmarks: []string{"bzip2"},
			Schemes:    []string{"faulthound?tcam=16,delay=6"},
			Workers:    2,
			Fault:      o.Fault,
		},
		Factory: o.CampaignFactory(),
	}
	dir := t.TempDir()
	if _, err := eng.Run(context.Background(), dir, false); err != nil {
		t.Fatal(err)
	}
	if err := contract.ValidateBundle(dir); err != nil {
		t.Fatalf("bundle fails its contract: %v", err)
	}
	q, err := Generate(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, c := range q.Cells {
		if strings.Contains(c.Scheme, ",") {
			found = true
			if c.Confusion == nil {
				t.Errorf("cell %s/%s has no confusion matrix against the baseline", c.Bench, c.Scheme)
			}
		}
	}
	if !found {
		t.Fatalf("report has no cell for the two-parameter scheme: %+v", q.Cells)
	}
}

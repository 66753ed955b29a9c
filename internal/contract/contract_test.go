package contract

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	referenceBundle = "../../results/campaigns/reference-1k"
	spechashGolden  = "../server/testdata/spechash_golden.json"
	wspecGolden     = "../server/testdata/wspec_golden.json"
	paretoGolden    = "../search/testdata/golden"
)

// TestSchemaEngine exercises each validation rule of the embedded
// mini-schema dialect through hand-built schemas.
func TestSchemaEngine(t *testing.T) {
	compile := func(t *testing.T, src string) *Schema {
		t.Helper()
		var s Schema
		if err := json.Unmarshal([]byte(src), &s); err != nil {
			t.Fatal(err)
		}
		if err := s.compile(); err != nil {
			t.Fatal(err)
		}
		return &s
	}
	cases := []struct {
		name    string
		schema  string
		doc     string
		wantErr string // substring of a violation; "" = valid
	}{
		{"type ok", `{"type":"string"}`, `"hi"`, ""},
		{"type mismatch", `{"type":"string"}`, `42`, "want type string"},
		{"type list", `{"type":["array","null"]}`, `null`, ""},
		{"integer rejects fraction", `{"type":"integer"}`, `1.5`, "integer"},
		{"integer admits whole float", `{"type":"integer"}`, `3.0`, ""},
		{"required missing", `{"type":"object","required":["a"],"properties":{"a":{"type":"integer"}}}`, `{}`, "missing required"},
		{"unknown field", `{"type":"object","additionalProperties":false,"properties":{"a":{}}}`, `{"a":1,"b":2}`, "not in contract"},
		{"additional schema", `{"type":"object","additionalProperties":{"type":"integer"}}`, `{"x":"no"}`, "want type integer"},
		{"enum ok", `{"enum":["masked","sdc"]}`, `"sdc"`, ""},
		{"enum miss", `{"enum":["masked","sdc"]}`, `"noisy"`, "enum"},
		{"minimum", `{"type":"number","minimum":0}`, `-1`, "minimum"},
		{"maximum", `{"type":"number","maximum":1}`, `1.2`, "maximum"},
		{"pattern ok", `{"type":"string","pattern":"^[0-9a-f]{4}$"}`, `"a0f3"`, ""},
		{"pattern miss", `{"type":"string","pattern":"^[0-9a-f]{4}$"}`, `"zzzz"`, "pattern"},
		{"items", `{"type":"array","items":{"type":"string"}}`, `[1]`, "want type string"},
		{"minItems", `{"type":"array","minItems":2}`, `["a"]`, "at least 2"},
		{"nested path", `{"type":"object","properties":{"a":{"type":"object","properties":{"b":{"type":"integer"}}}}}`, `{"a":{"b":"x"}}`, "/a/b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := compile(t, tc.schema)
			var doc any
			if err := json.Unmarshal([]byte(tc.doc), &doc); err != nil {
				t.Fatal(err)
			}
			vs := s.Validate(doc)
			if tc.wantErr == "" {
				if len(vs) != 0 {
					t.Fatalf("want valid, got %v", vs)
				}
				return
			}
			found := false
			for _, v := range vs {
				if strings.Contains(v.String(), tc.wantErr) {
					found = true
				}
			}
			if !found {
				t.Fatalf("want a violation containing %q, got %v", tc.wantErr, vs)
			}
		})
	}
}

// TestCompileRejectsUnknownType guards the schema loader itself: a
// typo'd type name in an embedded schema must fail compile, not
// silently admit everything.
func TestCompileRejectsUnknownType(t *testing.T) {
	var s Schema
	if err := json.Unmarshal([]byte(`{"type":"strng"}`), &s); err != nil {
		t.Fatal(err)
	}
	if err := s.compile(); err == nil {
		t.Fatal("compile accepted unknown type name")
	}
}

// TestCommittedArtifactsConform is the release gate in test form:
// every committed machine-readable artifact validates against its v1
// contract — the reference bundle and the spec-hash goldens.
func TestCommittedArtifactsConform(t *testing.T) {
	if err := ValidateBundle(referenceBundle); err != nil {
		t.Errorf("reference bundle: %v", err)
	}
	for _, f := range []string{spechashGolden, wspecGolden} {
		kind := SniffKind(f)
		if kind == "" {
			t.Fatalf("SniffKind(%s) = \"\"", f)
		}
		if err := ValidateJSONFile(kind, f); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestSchemaBreakIsCaught mutates the committed summary in the ways a
// careless writer change would — dropped required field, renamed
// field, wrong type — and checks each violates the contract.
func TestSchemaBreakIsCaught(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(referenceBundle, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := ValidateJSON(KindSummary, raw); err != nil {
		t.Fatalf("pristine summary rejected: %v", err)
	}
	for name, doc := range map[string][]byte{
		"missing run_id": mutate(func(m map[string]any) { delete(m, "run_id") }),
		"renamed field":  mutate(func(m map[string]any) { m["runid"] = m["run_id"]; delete(m, "run_id") }),
		"wrong type":     mutate(func(m map[string]any) { m["injections_per_cell"] = "250" }),
		"negative count": mutate(func(m map[string]any) { m["injections_per_cell"] = -1 }),
		"smuggled field": mutate(func(m map[string]any) { m["extra"] = true }),
		"negative fp_rate": mutate(func(m map[string]any) {
			cell := m["cells"].([]any)[0].(map[string]any)
			cell["fp_rate"] = -0.5
		}),
	} {
		if err := ValidateJSON(KindSummary, doc); err == nil {
			t.Errorf("%s: contract accepted the break", name)
		}
	}
}

// TestResultsCSVContract checks the column contract end to end on the
// committed results.csv plus targeted corruptions.
func TestResultsCSVContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(referenceBundle, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ValidateResultsCSV(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("committed results.csv rejected: %v", err)
	}
	if rows != 1000 {
		t.Fatalf("reference results.csv has %d rows, want 1000", rows)
	}

	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for name, doc := range map[string]string{
		"reordered header": strings.Join(append([]string{"scheme,bench" + lines[0][len("bench,scheme"):]}, lines[1:]...), "\n"),
		"bad outcome":      lines[0] + "\n" + strings.Replace(lines[1], "masked", "exploded", 1),
		"short row":        lines[0] + "\nbzip2,baseline,0\n",
	} {
		if _, err := ValidateResultsCSV(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: contract accepted the break", name)
		}
	}
}

// TestParetoArtifactsConform validates the committed Pareto-search
// golden directory (internal/search/testdata/golden) the same way the
// release gate does, plus targeted corruptions of the CSV contract.
func TestParetoArtifactsConform(t *testing.T) {
	if err := ValidateParetoDir(paretoGolden); err != nil {
		t.Errorf("pareto golden: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(paretoGolden, "pareto.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 {
		t.Fatalf("pareto golden has %d rows, want a multi-point archive", len(lines)-1)
	}
	last := lines[len(lines)-1]
	for name, doc := range map[string]string{
		"reordered header": strings.Join(append([]string{"front,spec" + lines[0][len("spec,front"):]}, lines[1:]...), "\n"),
		"bad front flag":   lines[0] + "\n" + strings.Replace(lines[1], ",true,", ",yes,", 1),
		"coverage above 1": lines[0] + "\nfaulthound,true,0,1.5,0,0,0,0\n",
		"front after dominated": strings.Join(append(append([]string{lines[0]}, last),
			strings.Replace(lines[1], ",false,", ",true,", 1)), "\n"),
	} {
		if _, err := ValidateParetoCSV(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: contract accepted the break", name)
		}
	}
}

func TestSniffKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"summary.json":                  KindSummary,
		"some/dir/manifest.json":        KindManifest,
		"report/quality.json":           KindQuality,
		"opt/pareto.json":               KindPareto,
		"results/BENCH_simcore.json":    "",
		"testdata/spechash_golden.json": KindHashes,
		"journal.jsonl":                 "",
		"report.md":                     "",
	} {
		if got := SniffKind(name); got != want {
			t.Errorf("SniffKind(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestValidateBundleCrossChecks builds a bundle whose files are each
// individually valid but mutually inconsistent, which per-file schema
// validation cannot catch.
func TestValidateBundleCrossChecks(t *testing.T) {
	dir := t.TempDir()
	copyMutated := func(src, dst string, f func(m map[string]any)) {
		t.Helper()
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		if f != nil {
			f(m)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyMutated(filepath.Join(referenceBundle, "manifest.json"), filepath.Join(dir, "manifest.json"), nil)
	copyMutated(filepath.Join(referenceBundle, "summary.json"), filepath.Join(dir, "summary.json"),
		func(m map[string]any) { m["run_id"] = "someone-else" })
	raw, err := os.ReadFile(filepath.Join(referenceBundle, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "results.csv"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = ValidateBundle(dir)
	if err == nil || !strings.Contains(err.Error(), "run_id mismatch") {
		t.Fatalf("want run_id mismatch, got %v", err)
	}
}

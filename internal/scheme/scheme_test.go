package scheme

import (
	"encoding/json"
	"strings"
	"testing"

	"faulthound/internal/core"
	"faulthound/internal/filter"
	"faulthound/internal/pipeline"
)

// TestCanonicalization: parameter order is irrelevant, defaults are
// elided, value encodings normalize.
func TestCanonicalization(t *testing.T) {
	cases := []struct{ in, want string }{
		{"faulthound", "faulthound"},
		{"faulthound?tcam=16,delay=6", "faulthound?delay=6,tcam=16"},
		{"faulthound?delay=6,tcam=16", "faulthound?delay=6,tcam=16"},
		{"faulthound?tcam=32,delay=7", "faulthound"}, // all defaults elide
		{"faulthound?lsq=off", "faulthound?lsq=off"},
		{"faulthound?lsq=false", "faulthound?lsq=off"}, // bool encodings normalize
		{"faulthound?lsq=on", "faulthound"},
		{"faulthound?tcam=016", "faulthound?tcam=16"}, // int encodings normalize
		{"faulthound?depth=2", "faulthound"},
		{"faulthound?depth=3", "faulthound?depth=3"},
		{"srt-iso?coverage=0.850", "srt-iso?coverage=0.85"},
		{"srt-iso?coverage=0.75", "srt-iso"},
		{"pbfs?entries=1024", "pbfs?entries=1024"},
		{"pbfs?entries=2048", "pbfs"},
		{"baseline", "baseline"},
		{" faulthound?tcam=16 , delay=6 ", "faulthound?delay=6,tcam=16"},
	}
	for _, c := range cases {
		sp, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if sp.String() != c.want {
			t.Errorf("Parse(%q) = %q, want %q", c.in, sp.String(), c.want)
		}
	}

	a, _ := Parse("faulthound?tcam=16,delay=6")
	b, _ := Parse("faulthound?delay=6,tcam=16")
	if a != b {
		t.Errorf("equivalent specs not comparable-equal: %v vs %v", a, b)
	}
}

// TestParseErrors: unknown schemes and malformed parameters produce
// the shared error text with the known-scheme list.
func TestParseErrors(t *testing.T) {
	if _, err := Parse("bogus"); err == nil || !strings.Contains(err.Error(), "unknown scheme") ||
		!strings.Contains(err.Error(), "faulthound") {
		t.Errorf("unknown scheme error = %v", err)
	}
	for _, in := range []string{
		"faulthound?bogus=1",       // unknown parameter
		"faulthound?tcam=x",        // not an integer
		"faulthound?tcam=0",        // below minimum
		"faulthound?tcam=65",       // above maximum (TCAM entries are a 64-bit mask)
		"faulthound?tcam=-4",       // negative
		"faulthound?depth=1",       // below minimum (the biased machines are 2 or 3 deep)
		"faulthound?depth=4",       // above maximum
		"faulthound?lsq=7",         // not a bool
		"faulthound?tcam",          // missing value
		"faulthound?tcam=1,tcam=2", // duplicate
		"?tcam=1",                  // empty name
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		} else if !IsSpecError(err) {
			t.Errorf("Parse(%q) error not a spec error: %v", in, err)
		}
	}
	if IsSpecError(nil) {
		t.Error("nil is a spec error")
	}
}

// TestExpand: sweep values fan out in written order; cartesian
// products vary later parameters fastest; duplicates collapse.
func TestExpand(t *testing.T) {
	specs, err := Expand("faulthound?tcam=8|16|32")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"faulthound?tcam=8", "faulthound?tcam=16", "faulthound"}
	if len(specs) != len(want) {
		t.Fatalf("expanded to %v", specs)
	}
	for i, w := range want {
		if specs[i].String() != w {
			t.Errorf("specs[%d] = %q, want %q", i, specs[i], w)
		}
	}

	specs, err = Expand("faulthound?tcam=8|16,delay=6|7")
	if err != nil {
		t.Fatal(err)
	}
	want = []string{
		"faulthound?delay=6,tcam=8", "faulthound?tcam=8",
		"faulthound?delay=6,tcam=16", "faulthound?tcam=16",
	}
	if len(specs) != len(want) {
		t.Fatalf("cartesian expanded to %v", specs)
	}
	for i, w := range want {
		if specs[i].String() != w {
			t.Errorf("cartesian specs[%d] = %q, want %q", i, specs[i], w)
		}
	}

	if _, err := Parse("faulthound?tcam=8|16"); err == nil {
		t.Error("Parse accepted sweep syntax")
	}
	if _, err := Expand("faulthound?tcam=8||16"); err == nil {
		t.Error("empty sweep value accepted")
	}
}

// TestParseList: commas separate schemes and parameters; '='-bearing
// tokens attach to the previous scheme.
func TestParseList(t *testing.T) {
	specs, err := ParseList("faulthound?tcam=16,delay=6,pbfs,baseline")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"faulthound?delay=6,tcam=16", "pbfs", "baseline"}
	if len(specs) != len(want) {
		t.Fatalf("list parsed to %v", specs)
	}
	for i, w := range want {
		if specs[i].String() != w {
			t.Errorf("list[%d] = %q, want %q", i, specs[i], w)
		}
	}
	if _, err := ParseList("tcam=16,faulthound"); err == nil {
		t.Error("leading parameter accepted")
	}
	specs, err = ParseList("faulthound?tcam=8|16,pbfs")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("sweep in list parsed to %v", specs)
	}
}

// TestFromStringAndJSON: syntactic round-trips, including unknown
// names (old artifacts must stay readable).
func TestFromStringAndJSON(t *testing.T) {
	if sp := FromString("faulthound"); sp != (Spec{Name: "faulthound"}) {
		t.Errorf("FromString plain = %+v", sp)
	}
	if sp := FromString("x?b=2,a=1"); sp.String() != "x?a=1,b=2" {
		t.Errorf("FromString sorts: %q", sp.String())
	}
	b, err := json.Marshal(Spec{Name: "faulthound", Query: "tcam=16"})
	if err != nil || string(b) != `"faulthound?tcam=16"` {
		t.Errorf("MarshalJSON = %s, %v", b, err)
	}
	var sp Spec
	if err := json.Unmarshal([]byte(`"faulthound?tcam=16"`), &sp); err != nil || sp.Query != "tcam=16" {
		t.Errorf("UnmarshalJSON = %+v, %v", sp, err)
	}
	if err := json.Unmarshal([]byte(`"baseline"`), &sp); err != nil || sp != (Spec{Name: "baseline"}) {
		t.Errorf("UnmarshalJSON plain = %+v, %v", sp, err)
	}
}

// TestBuildInstances: every registered scheme builds from its plain
// spec; detector presence matches the scheme class; parameters reach
// the built artifacts.
func TestBuildInstances(t *testing.T) {
	withDetector := map[string]bool{
		"pbfs": true, "pbfs-biased": true, "faulthound-backend": true,
		"faulthound": true, "fh-be": true, "fh-be-nolsq": true,
		"fh-be-no2level": true, "fh-be-nocluster-no2level": true,
		"fh-be-full-rollback": true,
		"baseline":            false, "srt-iso": false, "srt": false,
	}
	for _, name := range Names() {
		inst, err := Build(Spec{Name: name}, Env{})
		if err != nil {
			t.Errorf("Build(%s): %v", name, err)
			continue
		}
		want, known := withDetector[name]
		if !known {
			t.Errorf("scheme %s missing from the detector expectation table", name)
			continue
		}
		if got := inst.NewDetector != nil; got != want {
			t.Errorf("scheme %s: detector presence = %v, want %v", name, got, want)
		}
		if inst.NewDetector != nil {
			if d := inst.NewDetector(); d == nil {
				t.Errorf("scheme %s: NewDetector returned nil", name)
			} else if d.Name() != name {
				t.Errorf("scheme %s: detector name = %q", name, d.Name())
			}
		}
	}

	// The delay parameter reaches the pipeline configuration.
	inst, err := Build(MustParse("faulthound?delay=5"), Env{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig(1)
	inst.Configure(&cfg)
	if cfg.DelayBuffer != 5 {
		t.Errorf("delay parameter not applied: DelayBuffer = %d", cfg.DelayBuffer)
	}

	// srt-iso: env coverage applies only when the spec is silent.
	inst, _ = Build(Spec{Name: "srt-iso"}, Env{SRTCoverage: 0.5})
	cfg = pipeline.DefaultConfig(1)
	inst.Configure(&cfg)
	if cfg.ShadowRedundancy != 0.5 {
		t.Errorf("env coverage not applied: %v", cfg.ShadowRedundancy)
	}
	inst, _ = Build(MustParse("srt-iso?coverage=0.9"), Env{SRTCoverage: 0.5})
	cfg = pipeline.DefaultConfig(1)
	inst.Configure(&cfg)
	if cfg.ShadowRedundancy != 0.9 {
		t.Errorf("explicit coverage not applied: %v", cfg.ShadowRedundancy)
	}

	// Build re-validates specs arriving via FromString.
	if _, err := Build(FromString("nope?x=1"), Env{}); err == nil {
		t.Error("Build accepted an unknown scheme")
	}
	if _, err := Build(FromString("faulthound?tcam=zap"), Env{}); err == nil {
		t.Error("Build accepted a bad parameter value")
	}
}

// TestDepth: the depth parameter selects the biased machine of both
// TCAMs, in the full and the backend-only FaultHound.
func TestDepth(t *testing.T) {
	for _, name := range []string{"faulthound", "faulthound-backend"} {
		for spec, want := range map[string]filter.Policy{name: filter.Biased2, name + "?depth=3": filter.Biased3} {
			inst, err := Build(MustParse(spec), Env{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := inst.NewDetector().(*core.FaultHound).Config()
			if cfg.Addr.Policy != want || cfg.Value.Policy != want {
				t.Errorf("%s: TCAM policies %v/%v, want %v", spec, cfg.Addr.Policy, cfg.Value.Policy, want)
			}
		}
	}
}

// TestNamesValid: every registered name is a valid spec; an unknown
// one is not.
func TestNamesValid(t *testing.T) {
	for _, name := range Names() {
		if !Valid(name) {
			t.Errorf("%s should be valid", name)
		}
	}
	if Valid("bogus") {
		t.Error("bogus scheme accepted")
	}
}

// TestResolvedAndMetadata: the self-describing forms cover every
// parameter.
func TestResolvedAndMetadata(t *testing.T) {
	r, err := Resolved(MustParse("faulthound?tcam=8"))
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"tcam=8", "delay=7", "lsq=on", "2level=on", "squash=on", "loosen=4", "depth=2"} {
		if !strings.Contains(r, frag) {
			t.Errorf("Resolved missing %q: %s", frag, r)
		}
	}
	if r, _ := Resolved(Spec{Name: "baseline"}); r != "baseline" {
		t.Errorf("Resolved(baseline) = %q", r)
	}

	all := All()
	if len(all) != len(Names()) {
		t.Fatalf("All() has %d entries, Names() %d", len(all), len(Names()))
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"faulthound"`, `"tcam"`, `"int"`, `"default":"32"`} {
		if !strings.Contains(string(b), frag) {
			t.Errorf("metadata JSON missing %s", frag)
		}
	}
	if !strings.Contains(Describe(), "tcam") || !strings.Contains(Usage(), "faulthound") {
		t.Error("Describe/Usage incomplete")
	}
}

// MustParse is a test helper: Parse or panic.
func MustParse(s string) Spec {
	sp, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return sp
}

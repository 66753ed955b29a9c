package pspec

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// testReg builds a registry exercising every parameter kind. Each test
// gets its own (registries are append-only).
func testReg() *Registry {
	r := NewRegistry("widget")
	r.Register(Entry{
		Name: "alpha",
		Help: "test entry",
		Params: []Param{
			{Name: "n", Kind: Int, Default: "4", Min: 2, Max: 16, Help: "an int"},
			{Name: "f", Kind: Float, Default: "0.5", Help: "a float"},
			{Name: "b", Kind: Bool, Default: "off", Help: "a bool"},
			{Name: "sz", Kind: Size, Default: "64k", Min: 1024, Help: "a size"},
			{Name: "path", Kind: Str, Default: "-", Help: "a string"},
		},
	})
	r.Register(Entry{Name: "beta", Help: "no params"})
	return r
}

// TestKindEncodings: each kind's canonical encoding and rejections —
// notably the Size and Str kinds added for workload specs.
func TestKindEncodings(t *testing.T) {
	r := testReg()
	ok := []struct{ in, want string }{
		{"alpha?n=08", "alpha?n=8"},
		{"alpha?n=16", "alpha?n=16"}, // the maximum itself is accepted
		{"alpha?n=4", "alpha"},       // default elides
		{"alpha?f=0.50", "alpha"},
		{"alpha?f=0.25", "alpha?f=0.25"},
		{"alpha?b=TRUE", "alpha?b=on"},
		{"alpha?b=0", "alpha"},
		{"alpha?sz=262144", "alpha?sz=256k"},
		{"alpha?sz=65536", "alpha"},
		{"alpha?sz=2m", "alpha?sz=2m"},
		{"alpha?sz=1536", "alpha?sz=1536"}, // no evenly-dividing suffix
		{"alpha?sz=1G", "alpha?sz=1g"},
		{"alpha?path=results/x.fhws", "alpha?path=results/x.fhws"},
		{"alpha?path=-", "alpha"},
		// Sorted canonical order: b < f < n < path < sz.
		{"alpha?sz=2m,n=8,b=on", "alpha?b=on,n=8,sz=2m"},
	}
	for _, c := range ok {
		sp, err := r.Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := sp.String(); got != c.want {
			t.Errorf("Parse(%q) = %q, want %q", c.in, got, c.want)
		}
	}

	bad := []struct{ in, frag string }{
		{"alpha?n=x", "not an integer"},
		{"alpha?n=-1", "negative value"},
		{"alpha?n=1", "below the minimum"},
		{"alpha?n=17", "above the maximum"},
		{"alpha?f=x", "not a number"},
		{"alpha?b=maybe", "not a boolean"},
		{"alpha?sz=64q", "not a size"},
		{"alpha?sz=512", "below the minimum"},
		{"alpha?path=a b", "spec syntax characters"},
		{"alpha?nope=1", "unknown parameter"},
		{"gamma", "unknown widget"},
		{"?n=1", "empty widget name"},
	}
	for _, c := range bad {
		_, err := r.Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q): no error", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q): error %q does not mention %q", c.in, err, c.frag)
		}
	}
}

// TestErrorDomains: both error shapes identify their registry's domain
// (the daemon branches its 400 bodies on it) and expose it via
// SpecErrorDomain through wrapping.
func TestErrorDomains(t *testing.T) {
	r := testReg()
	_, uerr := r.Parse("gamma")
	_, berr := r.Parse("alpha?n=x")

	var u *UnknownNameError
	if !errors.As(uerr, &u) || u.Domain != "widget" {
		t.Fatalf("unknown-name error: %v", uerr)
	}
	if !strings.Contains(uerr.Error(), "alpha") || !strings.Contains(uerr.Error(), "beta") {
		t.Errorf("unknown-name error does not list known names: %v", uerr)
	}
	var b *BadSpecError
	if !errors.As(berr, &b) || b.Domain != "widget" {
		t.Fatalf("bad-spec error: %v", berr)
	}

	for _, err := range []error{uerr, berr} {
		if SpecErrorDomain(err) != "widget" {
			t.Errorf("SpecErrorDomain(%v) = %q", err, SpecErrorDomain(err))
		}
		if SpecErrorDomain(wrap(err)) != "widget" {
			t.Errorf("wrapped domain lost: %v", err)
		}
	}
	if SpecErrorDomain(errors.New("plain")) != "" {
		t.Error("plain error has a domain")
	}
}

func wrap(err error) error { return &wrapped{err} }

type wrapped struct{ err error }

func (w *wrapped) Error() string { return "wrap: " + w.err.Error() }
func (w *wrapped) Unwrap() error { return w.err }

// TestExpandAndValues: sweep fan-out order, Values typed getters with
// defaults, and Explicit/Has.
func TestExpandAndValues(t *testing.T) {
	r := testReg()
	sps, err := r.Expand("alpha?n=2|8,b=on|off")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sp := range sps {
		got = append(got, sp.String())
	}
	want := []string{"alpha?b=on,n=2", "alpha?n=2", "alpha?b=on,n=8", "alpha?n=8"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Expand = %v, want %v", got, want)
	}

	sp, err := r.Parse("alpha?sz=2m,path=x.fhws")
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.ValuesOf(sp)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int("n") != 4 || v.Float("f") != 0.5 || v.Bool("b") || v.Size("sz") != 2<<20 || v.Str("path") != "x.fhws" {
		t.Fatalf("typed getters wrong: n=%d f=%v b=%v sz=%d path=%q",
			v.Int("n"), v.Float("f"), v.Bool("b"), v.Size("sz"), v.Str("path"))
	}
	if !v.Explicit("sz") || v.Explicit("n") || !v.Has("f") || v.Has("zzz") {
		t.Fatal("Explicit/Has wrong")
	}

	if _, err := r.Expand("alpha?n=2||8"); err == nil {
		t.Fatal("empty sweep value accepted")
	}
}

// TestSplitListAttachment: '='-bearing tokens without '?' attach to
// the previous item — what lets one comma-separated CLI flag carry
// parameterized specs.
func TestSplitListAttachment(t *testing.T) {
	r := testReg()
	got, err := r.SplitList("alpha?n=8,sz=2m,beta,alpha")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha?n=8,sz=2m", "beta", "alpha"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SplitList = %v, want %v", got, want)
	}
	if _, err := r.SplitList("n=8,alpha"); err == nil {
		t.Fatal("leading parameter token accepted")
	}
}

// TestParseSize: the exported size syntax.
func TestParseSize(t *testing.T) {
	for raw, want := range map[string]uint64{
		"0": 0, "1024": 1024, "64k": 64 << 10, "2M": 2 << 20, "1g": 1 << 30,
	} {
		n, err := ParseSize(raw)
		if err != nil || n != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", raw, n, err, want)
		}
	}
	if _, err := ParseSize("12kb"); err == nil {
		t.Error("ParseSize accepted a bad suffix")
	}
}

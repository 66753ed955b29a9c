package pspec_test

import (
	"strings"
	"testing"

	"faulthound/internal/pspec"
	"faulthound/internal/scheme"
	"faulthound/internal/wgen"
)

// FuzzParseCanonical feeds arbitrary spec strings to the scheme and
// generated-workload registries. Any input that parses must yield a
// canonical Spec: parsing its String returns it unchanged, Valid agrees
// with Parse, and Expand of an input without sweep syntax is exactly
// that one Spec. Seeds under testdata/fuzz run in plain go test.
func FuzzParseCanonical(f *testing.F) {
	for _, s := range []string{
		"faulthound", "faulthound?tcam=16,delay=6", " faulthound ? lsq=off , tcam=32 ",
		"faulthound?depth=2", "faulthound?tcam=8|16", "pbfs-biased", "baseline",
		"gen", "gen?stride=64,chase=4,vlocal=0.85,seg=256k,phase=2,plant=3",
		"gen?seg=262144", "gen?vlocal=0.50", "gen?stride=8|64|512", "nosuch?x=1", "?",
	} {
		f.Add(s)
	}
	regs := []struct {
		domain string
		parse  func(string) (pspec.Spec, error)
		valid  func(string) bool
		expand func(string) ([]pspec.Spec, error)
	}{
		{"scheme", scheme.Parse, scheme.Valid, scheme.Expand},
		{"workload", wgen.Parse, wgen.Valid, wgen.Expand},
	}
	f.Fuzz(func(t *testing.T, raw string) {
		for _, r := range regs {
			sp, err := r.parse(raw)
			if ok := r.valid(raw); ok != (err == nil) {
				t.Fatalf("%s %q: Valid = %v, Parse error %v", r.domain, raw, ok, err)
			}
			if err != nil {
				continue
			}
			if again, err := r.parse(sp.String()); err != nil || again != sp {
				t.Fatalf("%s %q parses to %q, which parses to %q (error %v)", r.domain, raw, sp, again, err)
			}
			if strings.Contains(raw, "|") {
				continue
			}
			if all, err := r.expand(raw); err != nil || len(all) != 1 || all[0] != sp {
				t.Fatalf("%s %q: Expand = %q (error %v), want [%q]", r.domain, raw, all, err, sp)
			}
		}
	})
}

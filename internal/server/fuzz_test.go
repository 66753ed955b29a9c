package server

import (
	"bytes"
	"testing"

	"faulthound/internal/campaign"
)

// FuzzNormalizeSpec decodes POST /v1/campaigns bodies the way the
// handler does and checks normalization: it never panics, and a spec
// that normalizes normalizes again to the same job ID. The seed corpus
// lives in testdata/fuzz/FuzzNormalizeSpec.
func FuzzNormalizeSpec(f *testing.F) {
	base := baseCfg()
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec campaign.Spec
		if decodeStrict(bytes.NewReader(body), &spec) != nil {
			return
		}
		norm, err := NormalizeSpec(spec, base)
		if err != nil {
			return
		}
		again, err := NormalizeSpec(norm, base)
		if err != nil {
			t.Fatalf("normalized spec %+v does not normalize again: %v", norm, err)
		}
		if a, b := SpecHash(norm, "fuzz"), SpecHash(again, "fuzz"); a != b {
			t.Fatalf("job ID moved on renormalization: %s -> %s (%+v -> %+v)", a, b, norm, again)
		}
	})
}

// FuzzOptimizeRequest does the same for POST /v1/optimize bodies
// through the whole submit-time path (normalization, cell resolution,
// request hash). The seed corpus lives in
// testdata/fuzz/FuzzOptimizeRequest.
func FuzzOptimizeRequest(f *testing.F) {
	s, err := New(optimizeConfig(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req OptimizeRequest
		if decodeStrict(bytes.NewReader(body), &req) != nil {
			return
		}
		j, err := s.optimizeJob(req)
		if err != nil {
			return
		}
		again, err := s.optimizeJob(*j.opt)
		if err != nil {
			t.Fatalf("normalized request %+v does not normalize again: %v", *j.opt, err)
		}
		if again.id != j.id {
			t.Fatalf("job ID moved on renormalization: %s -> %s (%+v -> %+v)", j.id, again.id, *j.opt, *again.opt)
		}
	})
}

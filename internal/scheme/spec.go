// Package scheme is the registry of fault-tolerance schemes: it maps
// scheme names to factories that build detectors and pipeline
// configurations from typed, validated parameters. The spec syntax
// every layer shares —
//
//	name                      plain scheme, all parameters default
//	name?k=v,k=v              parameterized ("faulthound?tcam=16,delay=6,lsq=off")
//	name?k=v1|v2|v3           sensitivity sweep, fanned out by Expand
//
// — lives in internal/pspec, shared with the generated-workload
// registry (internal/wgen); this package binds it to the "scheme"
// domain and the detector factories.
//
// A parsed Spec is canonical: parameters are sorted by name, values
// are re-encoded in canonical form, and parameters equal to their
// default are elided — so "faulthound?delay=7,tcam=32" and
// "faulthound" are one spec, one campaign cell, and one server
// spec-hash. Plain scheme names canonicalize to themselves, which is
// what keeps pre-registry artifacts (journals, manifests, spec
// hashes) byte-identical.
//
// The registry binding (Register, Parse, Build, Names) lives in
// registry.go; the built-in schemes of the paper's evaluation are
// registered by builtin.go. See docs/SCHEMES.md.
package scheme

import "faulthound/internal/pspec"

// Domain is this registry's noun in spec error messages.
const Domain = "scheme"

// Spec is one resolved scheme specification: a scheme name plus its
// canonically encoded non-default parameters. It is pspec.Spec — the
// shared canonical spec type — so journals and manifests serialize it
// as the canonical string.
type Spec = pspec.Spec

// FromString parses a spec string syntactically: split the name at the
// first '?', sort the parameter tokens. It never fails and does not
// consult the registry — use it for trusted, already-canonical input
// (journals, manifests); use Parse for user input.
func FromString(raw string) Spec { return pspec.FromString(raw) }

// IsSpecError reports whether err (anywhere in its chain) is a scheme
// spec error — the condition under which the daemon answers 400 with
// the known-scheme list instead of 500. Spec errors of other domains
// (workload specs) are not scheme spec errors.
func IsSpecError(err error) bool {
	return pspec.SpecErrorDomain(err) == Domain
}

package scheme

import (
	"fmt"

	"faulthound/internal/detect"
	"faulthound/internal/pipeline"
	"faulthound/internal/pspec"
)

// Env carries host-supplied tunables a factory may consult for
// parameters the spec leaves unset. It keeps scheme-specific policy
// (like the harness's SRT coverage matching) out of the callers.
type Env struct {
	// SRTCoverage, when nonzero, overrides srt-iso's default coverage
	// (the paper matches the coverage of the scheme under comparison).
	SRTCoverage float64
}

// Instance is one built scheme, ready to construct cores.
type Instance struct {
	// Spec is the canonical spec the instance was built from.
	Spec Spec
	// NewDetector builds a fresh detector (nil for schemes that are
	// pure pipeline configurations: baseline and the SRT models).
	NewDetector func() detect.Detector
	// Configure mutates the pipeline configuration (nil when the
	// scheme needs no pipeline changes).
	Configure func(*pipeline.Config)
}

// Scheme is one registry entry: the name, help line, parameter
// metadata, and the factory.
type Scheme struct {
	Name   string
	Help   string
	Params []pspec.Param
	// Build constructs the instance. sp is the canonical spec (for
	// labeling), v the typed parameter view (explicit settings from the
	// spec query, defaults from the metadata), env the host tunables.
	Build func(sp Spec, v pspec.Values, env Env) (Instance, error)
}

var (
	// reg owns the spec syntax (parse/canonicalize/expand/describe);
	// schemes pairs each entry with its factory.
	reg     = pspec.NewRegistry(Domain)
	schemes = map[string]*Scheme{}
)

// Register adds a scheme to the registry. It panics on a duplicate
// name, an unparsable parameter default, or other registration bugs —
// registration happens at init time from this package only.
func Register(s Scheme) {
	if s.Name == "" || s.Build == nil {
		panic("scheme: Register needs a name and a build function")
	}
	reg.Register(pspec.Entry{Name: s.Name, Help: s.Help, Params: s.Params})
	sc := s
	schemes[s.Name] = &sc
}

// Names lists every registered scheme name in registration order —
// the single source usage strings and error messages derive from.
func Names() []string { return reg.Names() }

// Lookup returns a scheme's registry entry.
func Lookup(name string) (*Scheme, bool) {
	sc, ok := schemes[name]
	return sc, ok
}

// Parse validates one spec string against the registry and returns
// its canonical Spec. Sweep syntax ('|' in a value) is an error here;
// use Expand where fan-out is meant.
func Parse(raw string) (Spec, error) { return reg.Parse(raw) }

// Valid reports whether raw parses against the registry.
func Valid(raw string) bool { return reg.Valid(raw) }

// Expand parses one spec string, fanning out sweep values: a value
// "8|16|32" yields one Spec per alternative. Multiple swept
// parameters produce their cartesian product, later-written
// parameters varying fastest. Every expanded Spec is canonical and
// fully validated.
func Expand(raw string) ([]Spec, error) { return reg.Expand(raw) }

// ParseList parses a comma-separated scheme list, expanding sweeps.
// Commas double as parameter separators, so a token containing '=' is
// a parameter of the most recent scheme, anything else starts a new
// spec: "faulthound?tcam=16,delay=6,pbfs" is faulthound with two
// parameters, then pbfs.
func ParseList(raw string) ([]Spec, error) { return reg.ParseList(raw) }

// Build constructs the instance of a canonical spec. The spec is
// re-validated (it may come from an untrusted journal or manifest via
// FromString).
func Build(sp Spec, env Env) (Instance, error) {
	v, err := reg.ValuesOf(sp)
	if err != nil {
		return Instance{}, err
	}
	sc, ok := schemes[sp.Name]
	if !ok {
		// reg and schemes are registered together; reaching here means
		// ValuesOf accepted a name Register never saw.
		return Instance{}, fmt.Errorf("scheme: no factory for %q", sp.Name)
	}
	inst, err := sc.Build(sp, v, env)
	if err != nil {
		return Instance{}, err
	}
	inst.Spec = sp
	return inst, nil
}

// ValuesOf validates a canonical spec against the registry and
// returns its typed parameter view (explicit settings plus defaults).
// Consumers that need a parameter's effective value without building
// the full instance — the energy model's TCAM sizing, the search
// driver's mutation space — go through here.
func ValuesOf(sp Spec) (pspec.Values, error) { return reg.ValuesOf(sp) }

// Resolved renders the spec with every parameter explicit (defaults
// filled in), in declaration order — the self-describing form campaign
// summaries print per cell.
func Resolved(sp Spec) (string, error) { return reg.Resolved(sp) }

// Usage returns the one-line scheme list for CLI flag help.
func Usage() string { return reg.Usage() }

// Describe renders the full self-describing registry: one block per
// scheme with its help line and parameter metadata. CLIs print it for
// -list-schemes; docs/SCHEMES.md mirrors it.
func Describe() string { return reg.Describe() }

// All returns the registry metadata in registration order, the JSON
// form the daemon's /v1/schemes endpoint serves.
func All() []pspec.Metadata { return reg.All() }

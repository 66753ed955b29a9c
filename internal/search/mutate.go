package search

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"faulthound/internal/pspec"
	"faulthound/internal/scheme"
	"faulthound/internal/stats"
)

// propose generates up to want novel children by mutating the parents
// round-robin. Every draw comes from rng in a fixed order, so the
// proposal stream is a pure function of the seed and the archive
// state. Parents whose schemes declare no mutable parameter simply
// never produce children.
func propose(rng *stats.RNG, parents []Point, allow []string, seen map[string]bool, want int) []scheme.Spec {
	var out []scheme.Spec
	if want <= 0 || len(parents) == 0 {
		return out
	}
	pending := make(map[string]bool)
	// Bounded attempts: mutation is cheap, evaluation is not, so spend
	// a generous number of draws hunting for unseen children before
	// declaring the neighbourhood exhausted.
	attempts := 32 * want
	for i := 0; len(out) < want && i < attempts; i++ {
		parent := parents[i%len(parents)]
		child, ok := mutate(rng, scheme.FromString(parent.Spec), allow)
		if !ok {
			continue
		}
		key := child.String()
		if key == parent.Spec || seen[key] || pending[key] {
			continue
		}
		pending[key] = true
		out = append(out, child)
	}
	return out
}

// mutate perturbs one randomly chosen parameter of sp, returning the
// canonicalized child. ok is false when the scheme declares no mutable
// parameter or the perturbed spec fails validation.
func mutate(rng *stats.RNG, sp scheme.Spec, allow []string) (scheme.Spec, bool) {
	sc, found := scheme.Lookup(sp.Name)
	if !found {
		return scheme.Spec{}, false
	}
	var params []pspec.Param
	for _, p := range sc.Params {
		if !mutableKind(p.Kind) {
			continue
		}
		if len(allow) > 0 && !slices.Contains(allow, p.Name) {
			continue
		}
		params = append(params, p)
	}
	if len(params) == 0 {
		return scheme.Spec{}, false
	}
	p := params[rng.Intn(len(params))]

	vals, err := scheme.ValuesOf(sp)
	if err != nil {
		return scheme.Spec{}, false
	}
	var raw string
	switch p.Kind {
	case pspec.Int:
		raw = strconv.Itoa(mutateInt(rng, vals.Int(p.Name), p))
	case pspec.Float:
		raw = strconv.FormatFloat(mutateFloat(rng, vals.Float(p.Name), p), 'g', -1, 64)
	case pspec.Bool:
		if vals.Bool(p.Name) {
			raw = "off"
		} else {
			raw = "on"
		}
	default:
		return scheme.Spec{}, false
	}

	child, err := scheme.Parse(withParam(sp, p.Name, raw))
	if err != nil {
		return scheme.Spec{}, false
	}
	return child, true
}

// mutableKind reports whether the search perturbs parameters of this
// kind. Size and Str parameters (segment sizes, labels) are skipped:
// their value spaces are either workload-shaped or unordered.
func mutableKind(k pspec.Kind) bool {
	return k == pspec.Int || k == pspec.Float || k == pspec.Bool
}

// CanonicalParams validates a Config.Params allow-list against the base
// population and returns its canonical form: names trimmed, empty names
// dropped, sorted and deduplicated (nil when nothing remains, meaning
// every mutable parameter). A name no base scheme declares as mutable
// is an error: mutate would never find it, and the search would
// silently return only the base points.
func CanonicalParams(base []scheme.Spec, params []string) ([]string, error) {
	var known, out []string
	for _, sp := range base {
		if sc, ok := scheme.Lookup(sp.Name); ok {
			for _, p := range sc.Params {
				if mutableKind(p.Kind) {
					known = append(known, p.Name)
				}
			}
		}
	}
	slices.Sort(known)
	known = slices.Compact(known)
	for _, p := range params {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		if !slices.Contains(known, p) {
			return nil, fmt.Errorf("search: %q is not a mutable parameter of the base schemes (known: %s)",
				p, strings.Join(known, ", "))
		}
		out = append(out, p)
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// mutateInt perturbs an integer parameter: halve, double, or step by
// one, clamped to [Min, 8×max(default, 1)] so the search stays in a
// plausible hardware range, and never above the parameter's Max.
func mutateInt(rng *stats.RNG, n int, p pspec.Param) int {
	def, _ := strconv.Atoi(p.Default)
	hi := 8 * max(def, 1)
	if p.Max != 0 {
		hi = min(hi, p.Max)
	}
	var m int
	switch rng.Intn(4) {
	case 0:
		m = n / 2
	case 1:
		m = n * 2
	case 2:
		m = n + 1
	default:
		m = n - 1
	}
	return min(max(m, p.Min), hi)
}

// mutateFloat perturbs a float parameter: scale by ½ or 2, or step by
// ±0.1, clamped to [0, 1] for fraction-like parameters (default ≤ 1)
// and [0, 8×default] otherwise. Values are rounded to 4 decimals so
// canonical encodings stay readable.
func mutateFloat(rng *stats.RNG, f float64, p pspec.Param) float64 {
	def, _ := strconv.ParseFloat(p.Default, 64)
	hi := 1.0
	if def > 1 {
		hi = 8 * def
	}
	var m float64
	switch rng.Intn(4) {
	case 0:
		m = f * 0.5
	case 1:
		m = f * 2
	case 2:
		m = f + 0.1
	default:
		m = f - 0.1
	}
	m = math.Round(m*1e4) / 1e4
	return math.Min(math.Max(m, 0), hi)
}

// withParam renders sp with one parameter overridden, ready for
// scheme.Parse to canonicalize (re-encode, sort, elide defaults).
func withParam(sp scheme.Spec, name, raw string) string {
	set := map[string]string{}
	if sp.Query != "" {
		for _, tok := range strings.Split(sp.Query, ",") {
			if k, v, ok := strings.Cut(tok, "="); ok {
				set[k] = v
			}
		}
	}
	set[name] = raw
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]string, len(keys))
	for i, k := range keys {
		pairs[i] = k + "=" + set[k]
	}
	return sp.Name + "?" + strings.Join(pairs, ",")
}

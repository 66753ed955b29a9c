package pspec

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind is a parameter's value type.
type Kind uint8

// Parameter kinds.
const (
	Int Kind = iota
	Float
	Bool
	// Size is a byte count with binary k/m/g suffixes: "256k" and
	// "262144" are one value. The canonical encoding uses the largest
	// suffix that divides the value evenly.
	Size
	// Str is a free-form string (a file path, a label). The canonical
	// encoding is the value itself; spec syntax characters are
	// rejected (',' and '|' would be parsed as separators).
	Str
)

// String names the kind ("int", "float", "bool", "size", "str").
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case Size:
		return "size"
	case Str:
		return "str"
	}
	return "?"
}

// MarshalJSON encodes the kind as its name, for the self-describing
// metadata endpoints and manifests.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Param is the self-describing metadata of one parameter.
type Param struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Default is the canonical encoding of the default value; a spec
	// setting the parameter to it is elided from the canonical form.
	Default string `json:"default"`
	// Min, for Int and Size parameters, is the smallest accepted value
	// (in bytes for Size; both kinds additionally reject negatives).
	Min int `json:"min,omitempty"`
	// Max, for Int parameters, is the largest accepted value; 0 means
	// unbounded.
	Max  int    `json:"max,omitempty"`
	Help string `json:"help"`
}

// encode validates raw against p and returns its canonical encoding.
func encode(p Param, raw string) (string, error) {
	switch p.Kind {
	case Int:
		n, err := strconv.Atoi(raw)
		if err != nil {
			return "", fmt.Errorf("parameter %s: not an integer: %q", p.Name, raw)
		}
		if n < 0 {
			return "", fmt.Errorf("parameter %s: negative value %d", p.Name, n)
		}
		if n < p.Min {
			return "", fmt.Errorf("parameter %s: %d is below the minimum %d", p.Name, n, p.Min)
		}
		if p.Max != 0 && n > p.Max {
			return "", fmt.Errorf("parameter %s: %d is above the maximum %d", p.Name, n, p.Max)
		}
		return strconv.Itoa(n), nil
	case Float:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return "", fmt.Errorf("parameter %s: not a number: %q", p.Name, raw)
		}
		return strconv.FormatFloat(f, 'g', -1, 64), nil
	case Bool:
		switch strings.ToLower(raw) {
		case "on", "true", "yes", "1":
			return "on", nil
		case "off", "false", "no", "0":
			return "off", nil
		}
		return "", fmt.Errorf("parameter %s: not a boolean (on/off): %q", p.Name, raw)
	case Size:
		n, err := parseSize(raw)
		if err != nil {
			return "", fmt.Errorf("parameter %s: %v", p.Name, err)
		}
		if n < uint64(p.Min) {
			return "", fmt.Errorf("parameter %s: %d is below the minimum %d", p.Name, n, p.Min)
		}
		return formatSize(n), nil
	case Str:
		if raw == "" {
			return "", fmt.Errorf("parameter %s: empty string", p.Name)
		}
		if strings.ContainsAny(raw, "?=,| ") {
			return "", fmt.Errorf("parameter %s: %q contains spec syntax characters", p.Name, raw)
		}
		return raw, nil
	}
	return "", fmt.Errorf("parameter %s: unknown kind", p.Name)
}

// parseSize parses a byte count with an optional binary suffix
// (k=KiB, m=MiB, g=GiB, case-insensitive).
func parseSize(raw string) (uint64, error) {
	s := strings.ToLower(strings.TrimSpace(raw))
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not a size (bytes with optional k/m/g suffix): %q", raw)
	}
	return n * mult, nil
}

// formatSize renders n with the largest binary suffix dividing it
// evenly — the canonical Size encoding ("262144" -> "256k").
func formatSize(n uint64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return strconv.FormatUint(n>>30, 10) + "g"
	case n >= 1<<20 && n%(1<<20) == 0:
		return strconv.FormatUint(n>>20, 10) + "m"
	case n >= 1<<10 && n%(1<<10) == 0:
		return strconv.FormatUint(n>>10, 10) + "k"
	}
	return strconv.FormatUint(n, 10)
}

// ParseSize exposes the Size syntax for callers outside the spec path
// (CLI flags that want to accept "256k").
func ParseSize(raw string) (uint64, error) { return parseSize(raw) }

// Values is the typed view of one spec's parameters a factory reads:
// explicit settings from the spec query, defaults from the parameter
// metadata. Getters panic on parameter names the entry never
// declared — that is a registration bug, not an input error.
type Values struct {
	entry *Entry
	set   map[string]string // explicit values, canonical encoding
}

func (v Values) raw(name string) (Param, string) {
	for _, p := range v.entry.Params {
		if p.Name == name {
			if s, ok := v.set[name]; ok {
				return p, s
			}
			return p, p.Default
		}
	}
	panic(fmt.Sprintf("pspec: %s has no parameter %q", v.entry.Name, name))
}

// Int returns an Int parameter's value.
func (v Values) Int(name string) int {
	p, s := v.raw(name)
	if p.Kind != Int {
		panic(fmt.Sprintf("pspec: parameter %s.%s is %s, not int", v.entry.Name, name, p.Kind))
	}
	n, _ := strconv.Atoi(s)
	return n
}

// Float returns a Float parameter's value.
func (v Values) Float(name string) float64 {
	p, s := v.raw(name)
	if p.Kind != Float {
		panic(fmt.Sprintf("pspec: parameter %s.%s is %s, not float", v.entry.Name, name, p.Kind))
	}
	f, _ := strconv.ParseFloat(s, 64)
	return f
}

// Bool returns a Bool parameter's value.
func (v Values) Bool(name string) bool {
	p, s := v.raw(name)
	if p.Kind != Bool {
		panic(fmt.Sprintf("pspec: parameter %s.%s is %s, not bool", v.entry.Name, name, p.Kind))
	}
	return s == "on"
}

// Size returns a Size parameter's value in bytes.
func (v Values) Size(name string) uint64 {
	p, s := v.raw(name)
	if p.Kind != Size {
		panic(fmt.Sprintf("pspec: parameter %s.%s is %s, not size", v.entry.Name, name, p.Kind))
	}
	n, _ := parseSize(s)
	return n
}

// Str returns a Str parameter's value.
func (v Values) Str(name string) string {
	p, s := v.raw(name)
	if p.Kind != Str {
		panic(fmt.Sprintf("pspec: parameter %s.%s is %s, not str", v.entry.Name, name, p.Kind))
	}
	return s
}

// Explicit reports whether the spec set the parameter itself (true)
// or the default applies (false). Factories use it for parameters
// whose effective default comes from the host environment.
func (v Values) Explicit(name string) bool {
	v.raw(name) // validate the name
	_, ok := v.set[name]
	return ok
}

// Has reports whether the entry declares the parameter at all —
// registries that share one build function across entries with
// different parameter sets branch on it.
func (v Values) Has(name string) bool {
	for _, p := range v.entry.Params {
		if p.Name == name {
			return true
		}
	}
	return false
}

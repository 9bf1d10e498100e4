package template

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// FilterFunc transforms a value in a {{ value|filter:arg }} pipeline.
// hasArg distinguishes "no argument" from "nil argument".
type FilterFunc func(v any, arg any, hasArg bool) (any, error)

// FilterSet is a named collection of filters. Filter names are resolved
// at parse time so typos fail fast rather than at render time.
type FilterSet struct {
	m map[string]FilterFunc
}

// NewFilterSet returns a set preloaded with the built-in Django-style
// filters.
func NewFilterSet() *FilterSet {
	fs := &FilterSet{m: make(map[string]FilterFunc, len(builtinFilters))}
	for name, fn := range builtinFilters {
		fs.m[name] = fn
	}
	return fs
}

// Register adds or replaces a filter.
func (fs *FilterSet) Register(name string, fn FilterFunc) {
	if name == "" || fn == nil {
		panic("template: invalid filter registration")
	}
	fs.m[name] = fn
}

// Get looks up a filter by name.
func (fs *FilterSet) Get(name string) (FilterFunc, bool) {
	fn, ok := fs.m[name]
	return fn, ok
}

// Names returns the registered filter names (unsorted).
func (fs *FilterSet) Names() []string {
	names := make([]string, 0, len(fs.m))
	for n := range fs.m {
		names = append(names, n)
	}
	return names
}

func noArg(name string, fn func(v any) (any, error)) FilterFunc {
	return func(v any, _ any, hasArg bool) (any, error) {
		if hasArg {
			return nil, fmt.Errorf("%s takes no argument", name)
		}
		return fn(v)
	}
}

var builtinFilters = map[string]FilterFunc{
	"upper": noArg("upper", func(v any) (any, error) {
		return strings.ToUpper(Stringify(v)), nil
	}),
	"lower": noArg("lower", func(v any) (any, error) {
		return strings.ToLower(Stringify(v)), nil
	}),
	"title": noArg("title", func(v any) (any, error) {
		if s, ok := v.(string); ok && isTitled(s) {
			return v, nil
		}
		words := strings.Fields(Stringify(v))
		for i, w := range words {
			words[i] = capitalizeASCII(w)
		}
		return strings.Join(words, " "), nil
	}),
	"capfirst": noArg("capfirst", func(v any) (any, error) {
		return capitalizeASCII(Stringify(v)), nil
	}),
	"length": noArg("length", func(v any) (any, error) {
		if n, ok := length(v); ok {
			return n, nil
		}
		return len(Stringify(v)), nil
	}),
	"wordcount": noArg("wordcount", func(v any) (any, error) {
		return len(strings.Fields(Stringify(v))), nil
	}),
	"default": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("default requires an argument")
		}
		if Truth(v) {
			return v, nil
		}
		return arg, nil
	},
	"default_if_none": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("default_if_none requires an argument")
		}
		if v == nil {
			return arg, nil
		}
		return v, nil
	},
	"floatformat": func(v any, arg any, hasArg bool) (any, error) {
		f, ok := asFloat(v)
		if !ok {
			return "", nil
		}
		digits := 1
		if hasArg {
			d, ok := asInt(arg)
			if !ok {
				return nil, fmt.Errorf("floatformat argument must be numeric")
			}
			digits = d
		}
		if digits < 0 {
			// Negative: only keep decimals when the value is fractional.
			if f == math.Trunc(f) {
				return strconv.FormatInt(int64(f), 10), nil
			}
			digits = -digits
		}
		return strconv.FormatFloat(f, 'f', digits, 64), nil
	},
	"escape": noArg("escape", func(v any) (any, error) {
		return Safe(HTMLEscape(Stringify(v))), nil
	}),
	"safe": noArg("safe", func(v any) (any, error) {
		return Safe(Stringify(v)), nil
	}),
	"truncatewords": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("truncatewords requires an argument")
		}
		n, ok := asInt(arg)
		if !ok || n < 0 {
			return nil, fmt.Errorf("truncatewords argument must be a non-negative integer")
		}
		words := strings.Fields(Stringify(v))
		if len(words) <= n {
			return strings.Join(words, " "), nil
		}
		return strings.Join(words[:n], " ") + " ...", nil
	},
	"truncatechars": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("truncatechars requires an argument")
		}
		n, ok := asInt(arg)
		if !ok || n < 0 {
			return nil, fmt.Errorf("truncatechars argument must be a non-negative integer")
		}
		s := Stringify(v)
		if len(s) <= n {
			return s, nil
		}
		if n <= 1 {
			return "…", nil
		}
		return s[:n-1] + "…", nil
	},
	"add": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("add requires an argument")
		}
		if vi, ok := asFloat(v); ok {
			if ai, ok := asFloat(arg); ok {
				sum := vi + ai
				if sum == math.Trunc(sum) {
					return int(sum), nil
				}
				return sum, nil
			}
		}
		return Stringify(v) + Stringify(arg), nil
	},
	"first": noArg("first", func(v any) (any, error) {
		return elemAt(v, 0), nil
	}),
	"last": noArg("last", func(v any) (any, error) {
		if n, ok := length(v); ok && n > 0 {
			return elemAt(v, n-1), nil
		}
		return nil, nil
	}),
	"join": func(v any, arg any, hasArg bool) (any, error) {
		sep := ", "
		if hasArg {
			sep = Stringify(arg)
		}
		var parts []string
		err := iterate(v, func(_ int, e any) error {
			parts = append(parts, Stringify(e))
			return nil
		})
		if err != nil {
			return nil, err
		}
		return strings.Join(parts, sep), nil
	},
	"yesno": func(v any, arg any, hasArg bool) (any, error) {
		choices := []string{"yes", "no"}
		if hasArg {
			choices = strings.Split(Stringify(arg), ",")
		}
		if len(choices) < 2 {
			return nil, fmt.Errorf("yesno needs at least two comma-separated choices")
		}
		if Truth(v) {
			return choices[0], nil
		}
		if v == nil && len(choices) > 2 {
			return choices[2], nil
		}
		return choices[1], nil
	},
	"pluralize": func(v any, arg any, hasArg bool) (any, error) {
		suffixes := []string{"", "s"}
		if hasArg {
			parts := strings.Split(Stringify(arg), ",")
			if len(parts) == 1 {
				suffixes = []string{"", parts[0]}
			} else {
				suffixes = parts[:2]
			}
		}
		n, ok := asInt(v)
		if !ok {
			if l, lok := length(v); lok {
				n = l
			}
		}
		if n == 1 {
			return suffixes[0], nil
		}
		return suffixes[1], nil
	},
	"urlencode": noArg("urlencode", func(v any) (any, error) {
		if s, ok := v.(string); ok && urlSafe(s) {
			return v, nil
		}
		return urlEscape(Stringify(v)), nil
	}),
	"cut": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("cut requires an argument")
		}
		return strings.ReplaceAll(Stringify(v), Stringify(arg), ""), nil
	},
	"divisibleby": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("divisibleby requires an argument")
		}
		n, ok1 := asInt(v)
		d, ok2 := asInt(arg)
		if !ok1 || !ok2 || d == 0 {
			return nil, fmt.Errorf("divisibleby needs integers and a non-zero divisor")
		}
		return n%d == 0, nil
	},
	"linebreaksbr": noArg("linebreaksbr", func(v any) (any, error) {
		escaped := HTMLEscape(Stringify(v))
		return Safe(strings.ReplaceAll(escaped, "\n", "<br>")), nil
	}),
	"stringformat": func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("stringformat requires an argument")
		}
		return fmt.Sprintf("%"+Stringify(arg), v), nil
	},
	"ljust": padFilter("ljust", false),
	"rjust": padFilter("rjust", true),
}

func padFilter(name string, right bool) FilterFunc {
	return func(v any, arg any, hasArg bool) (any, error) {
		if !hasArg {
			return nil, fmt.Errorf("%s requires an argument", name)
		}
		width, ok := asInt(arg)
		if !ok || width < 0 {
			return nil, fmt.Errorf("%s argument must be a non-negative integer", name)
		}
		s := Stringify(v)
		if len(s) >= width {
			return s, nil
		}
		pad := strings.Repeat(" ", width-len(s))
		if right {
			return pad + s, nil
		}
		return s + pad, nil
	}
}

func capitalizeASCII(s string) string {
	if s == "" {
		return s
	}
	if c := s[0]; 'a' <= c && c <= 'z' {
		return string(c-('a'-'A')) + s[1:]
	}
	return s
}

// isTitled reports whether the title filter would return s unchanged:
// ASCII words separated by single spaces, none starting with a-z.
// Anything else (other whitespace, non-ASCII bytes that might be
// Unicode spaces) takes the general path.
func isTitled(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 0x80, c == '\t', c == '\n', c == '\v', c == '\f', c == '\r':
			return false
		case c == ' ':
			if i == 0 || i == len(s)-1 || s[i+1] == ' ' {
				return false
			}
		case 'a' <= c && c <= 'z':
			if i == 0 || s[i-1] == ' ' {
				return false
			}
		}
	}
	return true
}

func elemAt(v any, i int) any {
	switch t := v.(type) {
	case nil:
		return nil
	case string:
		if i < len(t) {
			return string(t[i])
		}
		return nil
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Slice, reflect.Array:
		if i < rv.Len() {
			return rv.Index(i).Interface()
		}
	}
	return nil
}

// urlUnreserved reports whether urlencode passes c through unescaped.
func urlUnreserved(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		c == '-' || c == '_' || c == '.' || c == '~' || c == '/'
}

// urlSafe reports whether urlencode would return s unchanged.
func urlSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		if !urlUnreserved(s[i]) {
			return false
		}
	}
	return true
}

func urlEscape(s string) string {
	const hexDigits = "0123456789ABCDEF"
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if urlUnreserved(c) {
			sb.WriteByte(c)
		} else {
			sb.WriteByte('%')
			sb.WriteByte(hexDigits[c>>4])
			sb.WriteByte(hexDigits[c&0xf])
		}
	}
	return sb.String()
}

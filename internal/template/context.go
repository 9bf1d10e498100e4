package template

import (
	"fmt"
	"reflect"
	"strconv"
)

// Context carries the data a template is rendered with — the paper's
// "dictionary (a.k.a. hashtable) used to render the template". It is a
// scope stack: tags like {% for %} and {% with %} push a scope for their
// body and pop it afterwards. The outermost scope is the caller's data
// map; inner scopes live on one flat binding stack, so pushing a scope
// allocates nothing.
//
// A Context is not safe for concurrent use. A render takes its Context
// from a pool and reuses it afterwards, so a Context (and the forloop
// values bound in it) is valid only during the render and the filter
// calls it makes.
type Context struct {
	data  map[string]any
	binds []binding // inner-scope bindings, outermost first
	marks []int     // start index in binds of each pushed scope
}

// binding is one name bound in an inner scope.
type binding struct {
	name  string
	value any
}

// NewContext returns a context whose outermost scope is data (may be nil).
func NewContext(data map[string]any) *Context {
	if data == nil {
		data = map[string]any{}
	}
	return &Context{data: data}
}

// Push adds an inner scope.
func (c *Context) Push() {
	c.marks = append(c.marks, len(c.binds))
}

// Pop removes the innermost scope. Popping the outermost scope panics —
// that is always a programming error in a tag implementation.
func (c *Context) Pop() {
	if len(c.marks) == 0 {
		panic("template: popped outermost context scope")
	}
	top := c.marks[len(c.marks)-1]
	clear(c.binds[top:])
	c.binds = c.binds[:top]
	c.marks = c.marks[:len(c.marks)-1]
}

// Set binds name in the innermost scope.
func (c *Context) Set(name string, value any) {
	if len(c.marks) == 0 {
		c.data[name] = value
		return
	}
	for i := c.marks[len(c.marks)-1]; i < len(c.binds); i++ {
		if c.binds[i].name == name {
			c.binds[i].value = value
			return
		}
	}
	c.bind(name, value)
}

// bind appends a binding to the innermost pushed scope and returns its
// slot, which the caller may update in place while the scope is live.
// The caller guarantees name is not already bound in that scope.
func (c *Context) bind(name string, value any) int {
	c.binds = append(c.binds, binding{name, value})
	return len(c.binds) - 1
}

// Lookup finds name, innermost scope first.
func (c *Context) Lookup(name string) (any, bool) {
	for i := len(c.binds) - 1; i >= 0; i-- {
		if c.binds[i].name == name {
			return c.binds[i].value, true
		}
	}
	v, ok := c.data[name]
	return v, ok
}

// reset empties the context for reuse with data, dropping references to
// the previous render's values.
func (c *Context) reset(data map[string]any) {
	clear(c.binds)
	c.data, c.binds, c.marks = data, c.binds[:0], c.marks[:0]
}

// resolveAttr resolves one step of a dotted variable path against value:
// map key, struct field, slice/array index, or method with no arguments.
// Missing attributes resolve to nil (Django's silent-failure semantics)
// so a template never crashes a render over absent data.
func resolveAttr(value any, attr string) any {
	switch v := value.(type) {
	case nil:
		return nil
	case map[string]any:
		return v[attr]
	case *forloop:
		return v.attr(attr)
	}
	rv := reflect.ValueOf(value)
	// A no-arg method on the value or pointer takes priority, mirroring
	// Django's callable resolution.
	if m := rv.MethodByName(attr); m.IsValid() && m.Type().NumIn() == 0 && m.Type().NumOut() >= 1 {
		return m.Call(nil)[0].Interface()
	}
	for rv.Kind() == reflect.Pointer || rv.Kind() == reflect.Interface {
		if rv.IsNil() {
			return nil
		}
		rv = rv.Elem()
	}
	switch rv.Kind() {
	case reflect.Map:
		kt := rv.Type().Key()
		if kt.Kind() == reflect.String {
			mv := rv.MapIndex(reflect.ValueOf(attr).Convert(kt))
			if mv.IsValid() {
				return mv.Interface()
			}
		}
		return nil
	case reflect.Struct:
		f := rv.FieldByName(attr)
		if f.IsValid() && f.CanInterface() {
			return f.Interface()
		}
		return nil
	case reflect.Slice, reflect.Array, reflect.String:
		idx, err := strconv.Atoi(attr)
		if err != nil || idx < 0 || idx >= rv.Len() {
			return nil
		}
		elem := rv.Index(idx)
		if rv.Kind() == reflect.String {
			return string(rune(elem.Uint()))
		}
		return elem.Interface()
	default:
		return nil
	}
}

// Safe marks a string as pre-escaped HTML: the autoescaper outputs it
// verbatim, like Django's mark_safe.
type Safe string

// HTMLEscape escapes the five characters that are special in HTML.
func HTMLEscape(s string) string {
	if htmlClean(s) {
		return s
	}
	return string(appendEscaped(make([]byte, 0, len(s)+16), s))
}

// htmlClean reports whether s has nothing to escape.
func htmlClean(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&', '<', '>', '"', '\'':
			return false
		}
	}
	return true
}

// appendEscaped appends s to dst with the HTML specials escaped.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&quot;"
		case '\'':
			esc = "&#39;"
		default:
			continue
		}
		dst = append(append(dst, s[last:i]...), esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// appendValue appends v's display string, HTML-escaped unless v is Safe.
// It is the {{ }} output path: strings and numbers go straight into dst
// without an intermediate string.
func appendValue(dst []byte, v any) []byte {
	switch t := v.(type) {
	case nil:
		return dst
	case string:
		return appendEscaped(dst, t)
	case Safe:
		return append(dst, t...)
	case bool:
		if t {
			return append(dst, "True"...)
		}
		return append(dst, "False"...)
	case int:
		return strconv.AppendInt(dst, int64(t), 10)
	case int64:
		return strconv.AppendInt(dst, t, 10)
	case int32:
		return strconv.AppendInt(dst, int64(t), 10)
	case float64:
		return appendFloat(dst, t)
	case float32:
		return appendFloat(dst, float64(t))
	default:
		return appendEscaped(dst, Stringify(v))
	}
}

// Stringify converts a template value to its display string.
func Stringify(v any) string {
	switch t := v.(type) {
	case nil:
		return ""
	case string:
		return t
	case Safe:
		return string(t)
	case bool:
		if t {
			return "True"
		}
		return "False"
	case int:
		return strconv.Itoa(t)
	case int64:
		return strconv.FormatInt(t, 10)
	case int32:
		return strconv.FormatInt(int64(t), 10)
	case float64:
		return formatFloat(t)
	case float32:
		return formatFloat(float64(t))
	case fmt.Stringer:
		return t.String()
	case error:
		return t.Error()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// formatFloat renders floats the way Django does: integral values without
// a decimal point become "5.0"-style only when genuinely fractional.
func formatFloat(f float64) string {
	var buf [32]byte
	return string(appendFloat(buf[:0], f))
}

func appendFloat(dst []byte, f float64) []byte {
	if f == float64(int64(f)) {
		return append(strconv.AppendInt(dst, int64(f), 10), ".0"...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

package template

import (
	"strings"
	"testing"
	"testing/quick"
)

// applyFilter renders {{ v|<filter> }} with the given data.
func applyFilter(t *testing.T, pipeline string, data map[string]any) string {
	t.Helper()
	return render(t, "{{ "+pipeline+" }}", data)
}

func TestFilterUpperLower(t *testing.T) {
	if got := applyFilter(t, "v|upper", map[string]any{"v": "go"}); got != "GO" {
		t.Fatalf("upper = %q", got)
	}
	if got := applyFilter(t, "v|lower", map[string]any{"v": "GO"}); got != "go" {
		t.Fatalf("lower = %q", got)
	}
}

func TestFilterTitleCapfirst(t *testing.T) {
	if got := applyFilter(t, "v|title", map[string]any{"v": "the go book"}); got != "The Go Book" {
		t.Fatalf("title = %q", got)
	}
	if got := applyFilter(t, "v|capfirst", map[string]any{"v": "hello"}); got != "Hello" {
		t.Fatalf("capfirst = %q", got)
	}
}

func TestFilterLength(t *testing.T) {
	if got := applyFilter(t, "v|length", map[string]any{"v": []int{1, 2, 3}}); got != "3" {
		t.Fatalf("length slice = %q", got)
	}
	if got := applyFilter(t, "v|length", map[string]any{"v": "four"}); got != "4" {
		t.Fatalf("length string = %q", got)
	}
	if got := applyFilter(t, "v|length", map[string]any{"v": map[string]int{"a": 1}}); got != "1" {
		t.Fatalf("length map = %q", got)
	}
}

func TestFilterDefault(t *testing.T) {
	if got := applyFilter(t, "v|default:'fallback'", nil); got != "fallback" {
		t.Fatalf("default = %q", got)
	}
	if got := applyFilter(t, "v|default:'fallback'", map[string]any{"v": "set"}); got != "set" {
		t.Fatalf("default set = %q", got)
	}
	// Falsy-but-present values still get the default (Django semantics).
	if got := applyFilter(t, "v|default:'dash'", map[string]any{"v": 0}); got != "dash" {
		t.Fatalf("default zero = %q", got)
	}
	if got := applyFilter(t, "v|default_if_none:'x'", map[string]any{"v": 0}); got != "0" {
		t.Fatalf("default_if_none zero = %q", got)
	}
}

func TestFilterFloatformat(t *testing.T) {
	tests := []struct {
		pipeline string
		v        any
		want     string
	}{
		{"v|floatformat", 34.23234, "34.2"},
		{"v|floatformat:3", 34.23234, "34.232"},
		{"v|floatformat:0", 34.6, "35"},
		{"v|floatformat:-2", 34.0, "34"},
		{"v|floatformat:-2", 34.26, "34.26"},
		{"v|floatformat:2", 100, "100.00"}, // TPC-W prices
	}
	for _, tt := range tests {
		if got := applyFilter(t, tt.pipeline, map[string]any{"v": tt.v}); got != tt.want {
			t.Errorf("%s with %v = %q, want %q", tt.pipeline, tt.v, got, tt.want)
		}
	}
}

func TestFilterTruncate(t *testing.T) {
	data := map[string]any{"v": "one two three four five"}
	if got := applyFilter(t, "v|truncatewords:3", data); got != "one two three ..." {
		t.Fatalf("truncatewords = %q", got)
	}
	if got := applyFilter(t, "v|truncatewords:9", data); got != "one two three four five" {
		t.Fatalf("truncatewords long = %q", got)
	}
	got := applyFilter(t, "v|truncatechars:7", data)
	if got != "one tw…" {
		t.Fatalf("truncatechars = %q", got)
	}
}

func TestFilterAdd(t *testing.T) {
	if got := applyFilter(t, "v|add:3", map[string]any{"v": 4}); got != "7" {
		t.Fatalf("add int = %q", got)
	}
	if got := applyFilter(t, "v|add:'-ish'", map[string]any{"v": "warm"}); got != "warm-ish" {
		t.Fatalf("add string = %q", got)
	}
}

func TestFilterFirstLastJoin(t *testing.T) {
	data := map[string]any{"v": []string{"a", "b", "c"}}
	if got := applyFilter(t, "v|first", data); got != "a" {
		t.Fatalf("first = %q", got)
	}
	if got := applyFilter(t, "v|last", data); got != "c" {
		t.Fatalf("last = %q", got)
	}
	if got := applyFilter(t, "v|join:'-'", data); got != "a-b-c" {
		t.Fatalf("join = %q", got)
	}
	if got := applyFilter(t, "v|first", map[string]any{"v": []string{}}); got != "" {
		t.Fatalf("first empty = %q", got)
	}
}

func TestFilterYesnoPluralize(t *testing.T) {
	if got := applyFilter(t, "v|yesno", map[string]any{"v": true}); got != "yes" {
		t.Fatalf("yesno = %q", got)
	}
	if got := applyFilter(t, "v|yesno:'on,off'", map[string]any{"v": false}); got != "off" {
		t.Fatalf("yesno arg = %q", got)
	}
	if got := applyFilter(t, "n|pluralize", map[string]any{"n": 1}); got != "" {
		t.Fatalf("pluralize 1 = %q", got)
	}
	if got := applyFilter(t, "n|pluralize", map[string]any{"n": 3}); got != "s" {
		t.Fatalf("pluralize 3 = %q", got)
	}
	if got := applyFilter(t, "n|pluralize:'y,ies'", map[string]any{"n": 2}); got != "ies" {
		t.Fatalf("pluralize arg = %q", got)
	}
}

func TestFilterCutUrlencode(t *testing.T) {
	if got := applyFilter(t, "v|cut:' '", map[string]any{"v": "a b c"}); got != "abc" {
		t.Fatalf("cut = %q", got)
	}
	if got := applyFilter(t, "v|urlencode", map[string]any{"v": "a b&c"}); got != "a%20b%26c" {
		t.Fatalf("urlencode = %q", got)
	}
}

func TestFilterDivisiblebyStringformat(t *testing.T) {
	if got := applyFilter(t, "n|divisibleby:3|yesno", map[string]any{"n": 9}); got != "yes" {
		t.Fatalf("divisibleby = %q", got)
	}
	if got := applyFilter(t, "n|stringformat:'04d'", map[string]any{"n": 7}); got != "0007" {
		t.Fatalf("stringformat = %q", got)
	}
}

func TestFilterJust(t *testing.T) {
	if got := applyFilter(t, "v|ljust:5|cut:' '", map[string]any{"v": "ab"}); got != "ab" {
		t.Fatalf("ljust = %q", got)
	}
	got := render(t, "[{{ v|rjust:4 }}]", map[string]any{"v": "ab"})
	if got != "[  ab]" {
		t.Fatalf("rjust = %q", got)
	}
}

func TestFilterLinebreaksbr(t *testing.T) {
	got := applyFilter(t, "v|linebreaksbr", map[string]any{"v": "a\nb<c"})
	if got != "a<br>b&lt;c" {
		t.Fatalf("linebreaksbr = %q", got)
	}
}

func TestFilterWordcount(t *testing.T) {
	if got := applyFilter(t, "v|wordcount", map[string]any{"v": "a b  c"}); got != "3" {
		t.Fatalf("wordcount = %q", got)
	}
}

func TestFilterChaining(t *testing.T) {
	got := applyFilter(t, "v|lower|capfirst|add:'!'", map[string]any{"v": "HELLO"})
	if got != "Hello!" {
		t.Fatalf("chain = %q", got)
	}
}

func TestFilterArgFromVariable(t *testing.T) {
	got := applyFilter(t, "v|add:delta", map[string]any{"v": 10, "delta": 5})
	if got != "15" {
		t.Fatalf("variable arg = %q", got)
	}
}

func TestFilterErrors(t *testing.T) {
	for _, src := range []string{
		"{{ v|default }}",           // missing required arg
		"{{ v|upper:'x' }}",         // unexpected arg
		"{{ v|truncatewords:'x' }}", // non-numeric arg
		"{{ n|divisibleby:0 }}",     // zero divisor
	} {
		s := NewSet()
		s.Add("t", src)
		if _, err := s.Render("t", map[string]any{"v": "a", "n": 3}); err == nil {
			t.Errorf("%q rendered without error", src)
		}
	}
}

// Property: escaping is idempotent through the escape filter (safe output
// escaped once) and never produces raw specials.
func TestEscapePropertyNoRawSpecials(t *testing.T) {
	f := func(s string) bool {
		out := HTMLEscape(s)
		return !strings.ContainsAny(out, "<>\"'") &&
			!strings.Contains(strings.ReplaceAll(out, "&amp;", ""), "&&")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHTMLEscapeFastPath(t *testing.T) {
	s := "no specials at all"
	if got := HTMLEscape(s); got != s {
		t.Fatalf("fast path mangled %q -> %q", s, got)
	}
}

func TestFilterSetNames(t *testing.T) {
	fs := NewFilterSet()
	if len(fs.Names()) < 20 {
		t.Fatalf("expected at least 20 builtin filters, got %d", len(fs.Names()))
	}
	if _, ok := fs.Get("upper"); !ok {
		t.Fatal("upper filter missing")
	}
	if _, ok := fs.Get("nope"); ok {
		t.Fatal("unknown filter found")
	}
}

func TestFilterRegisterInvalid(t *testing.T) {
	fs := NewFilterSet()
	for name, fn := range map[string]func(){
		"empty name": func() { fs.Register("", func(v any, _ any, _ bool) (any, error) { return v, nil }) },
		"nil fn":     func() { fs.Register("x", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: the title and urlencode identity paths return exactly what
// the general computation would, over strings drawn from an alphabet
// rich in the bytes that decide the fast path.
func TestFilterIdentityPathsMatchGeneral(t *testing.T) {
	alphabet := []string{"a", "z", "A", "Q", "-", " ", "  ", "\t", "\n", " ", " ", "é", "/", "%", "&", "7", "_", "~", "."}
	title, _ := NewFilterSet().Get("title")
	urlencode, _ := NewFilterSet().Get("urlencode")
	f := func(picks []uint8) bool {
		var sb strings.Builder
		for _, p := range picks {
			sb.WriteString(alphabet[int(p)%len(alphabet)])
		}
		s := sb.String()
		got, err := title(s, nil, false)
		if err != nil || got != capitalizeWords(s) {
			t.Logf("title(%q) = %q", s, got)
			return false
		}
		got, err = urlencode(s, nil, false)
		if err != nil || got != urlEscape(s) {
			t.Logf("urlencode(%q) = %q", s, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// capitalizeWords is the title filter's general computation.
func capitalizeWords(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		words[i] = capitalizeASCII(w)
	}
	return strings.Join(words, " ")
}

package template

import (
	"strings"
	"testing"
)

// render is a helper that registers one template and renders it.
func render(t *testing.T, src string, data map[string]any) string {
	t.Helper()
	s := NewSet()
	s.Add("t", src)
	out, err := s.Render("t", data)
	if err != nil {
		t.Fatalf("render %q: %v", src, err)
	}
	return out
}

func renderErr(t *testing.T, src string, data map[string]any) error {
	t.Helper()
	s := NewSet()
	s.Add("t", src)
	_, err := s.Render("t", data)
	if err == nil {
		t.Fatalf("render %q succeeded, want error", src)
	}
	return err
}

func TestPlainText(t *testing.T) {
	if got := render(t, "<html>hello</html>", nil); got != "<html>hello</html>" {
		t.Fatalf("got %q", got)
	}
}

func TestVariableSubstitution(t *testing.T) {
	got := render(t, "<title>{{ title }}</title>", map[string]any{"title": "TPC-W"})
	if got != "<title>TPC-W</title>" {
		t.Fatalf("got %q", got)
	}
}

func TestPaperFigure3Template(t *testing.T) {
	// The exact presentation template from Figure 3 of the paper.
	src := `<html>
<head> <title> {{ title }} </title> </head>
<body>
<h2 align="center"> {{ heading }} </h2>
<ul>
{% for item in listitems %}
<li> {{ item }} </li>
{% endfor %}
</ul>
</body>
</html>`
	data := map[string]any{
		"title":     "Bookstore",
		"heading":   "Welcome",
		"listitems": []any{"one", "two", "three"},
	}
	got := render(t, src, data)
	for _, want := range []string{
		"<title> Bookstore </title>",
		`<h2 align="center"> Welcome </h2>`,
		"<li> one </li>", "<li> two </li>", "<li> three </li>",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestAutoEscaping(t *testing.T) {
	got := render(t, "{{ v }}", map[string]any{"v": `<script>"x" & 'y'</script>`})
	want := "&lt;script&gt;&quot;x&quot; &amp; &#39;y&#39;&lt;/script&gt;"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestSafeFilterBypassesEscaping(t *testing.T) {
	got := render(t, "{{ v|safe }}", map[string]any{"v": "<b>bold</b>"})
	if got != "<b>bold</b>" {
		t.Fatalf("got %q", got)
	}
}

func TestSafeValueBypassesEscaping(t *testing.T) {
	got := render(t, "{{ v }}", map[string]any{"v": Safe("<i>x</i>")})
	if got != "<i>x</i>" {
		t.Fatalf("got %q", got)
	}
}

func TestMissingVariableRendersEmpty(t *testing.T) {
	if got := render(t, "[{{ nothing }}]", nil); got != "[]" {
		t.Fatalf("got %q", got)
	}
}

func TestDottedPathMap(t *testing.T) {
	data := map[string]any{"book": map[string]any{"title": "Go", "author": map[string]any{"name": "Pike"}}}
	if got := render(t, "{{ book.author.name }}", data); got != "Pike" {
		t.Fatalf("got %q", got)
	}
}

func TestDottedPathStruct(t *testing.T) {
	type Author struct{ Name string }
	type Book struct {
		Title  string
		Author Author
		Price  float64
	}
	data := map[string]any{"book": Book{Title: "Go", Author: Author{Name: "Pike"}, Price: 29.99}}
	if got := render(t, "{{ book.Author.Name }}: {{ book.Price }}", data); got != "Pike: 29.99" {
		t.Fatalf("got %q", got)
	}
}

func TestDottedPathSliceIndex(t *testing.T) {
	data := map[string]any{"xs": []string{"a", "b", "c"}}
	if got := render(t, "{{ xs.1 }}", data); got != "b" {
		t.Fatalf("got %q", got)
	}
}

func TestDottedPathMethod(t *testing.T) {
	data := map[string]any{"v": stringerVal{}}
	if got := render(t, "{{ v.Label }}", data); got != "labelled" {
		t.Fatalf("got %q", got)
	}
}

type stringerVal struct{}

func (stringerVal) Label() string { return "labelled" }

func TestIfElse(t *testing.T) {
	src := "{% if n > 5 %}big{% elif n > 2 %}mid{% else %}small{% endif %}"
	cases := map[int]string{10: "big", 3: "mid", 1: "small"}
	for n, want := range cases {
		if got := render(t, src, map[string]any{"n": n}); got != want {
			t.Fatalf("n=%d got %q, want %q", n, got, want)
		}
	}
}

func TestIfOperators(t *testing.T) {
	tests := []struct {
		cond string
		data map[string]any
		want bool
	}{
		{"a == b", map[string]any{"a": 1, "b": 1}, true},
		{"a == b", map[string]any{"a": 1, "b": "1"}, true}, // numeric coercion
		{"a != b", map[string]any{"a": 1, "b": 2}, true},
		{"a < b", map[string]any{"a": 1, "b": 2}, true},
		{"a >= b", map[string]any{"a": 2, "b": 2}, true},
		{"a and b", map[string]any{"a": true, "b": false}, false},
		{"a or b", map[string]any{"a": false, "b": true}, true},
		{"not a", map[string]any{"a": false}, true},
		{"x in xs", map[string]any{"x": "b", "xs": []any{"a", "b"}}, true},
		{"x not in xs", map[string]any{"x": "z", "xs": []any{"a", "b"}}, true},
		{"x in s", map[string]any{"x": "ell", "s": "hello"}, true},
		{"a == 'go'", map[string]any{"a": "go"}, true},
		{"n == 3.5", map[string]any{"n": 3.5}, true},
		{"a and not b or c", map[string]any{"a": true, "b": true, "c": true}, true},
	}
	for _, tt := range tests {
		src := "{% if " + tt.cond + " %}T{% else %}F{% endif %}"
		want := "F"
		if tt.want {
			want = "T"
		}
		if got := render(t, src, tt.data); got != want {
			t.Errorf("cond %q = %q, want %q", tt.cond, got, want)
		}
	}
}

func TestForLoopVariables(t *testing.T) {
	src := "{% for x in xs %}{{ forloop.counter }}:{{ x }}{% if not forloop.last %},{% endif %}{% endfor %}"
	got := render(t, src, map[string]any{"xs": []int{7, 8, 9}})
	if got != "1:7,2:8,3:9" {
		t.Fatalf("got %q", got)
	}
}

func TestForEmpty(t *testing.T) {
	src := "{% for x in xs %}{{ x }}{% empty %}none{% endfor %}"
	if got := render(t, src, map[string]any{"xs": []int{}}); got != "none" {
		t.Fatalf("got %q", got)
	}
}

func TestForReversed(t *testing.T) {
	src := "{% for x in xs reversed %}{{ x }}{% endfor %}"
	if got := render(t, src, map[string]any{"xs": []int{1, 2, 3}}); got != "321" {
		t.Fatalf("got %q", got)
	}
}

func TestForMapDeterministic(t *testing.T) {
	src := "{% for k, v in m %}{{ k }}={{ v }};{% endfor %}"
	data := map[string]any{"m": map[string]int{"b": 2, "a": 1, "c": 3}}
	for i := 0; i < 5; i++ {
		if got := render(t, src, data); got != "a=1;b=2;c=3;" {
			t.Fatalf("got %q", got)
		}
	}
}

func TestForNested(t *testing.T) {
	src := "{% for row in rows %}{% for c in row %}{{ forloop.parentloop.counter }}.{{ forloop.counter }} {% endfor %}{% endfor %}"
	data := map[string]any{"rows": []any{[]int{1, 2}, []int{3}}}
	if got := render(t, src, data); got != "1.1 1.2 2.1 " {
		t.Fatalf("got %q", got)
	}
}

func TestWith(t *testing.T) {
	src := "{% with total=xs|length %}{{ total }}{% endwith %}"
	if got := render(t, src, map[string]any{"xs": []int{1, 2, 3}}); got != "3" {
		t.Fatalf("got %q", got)
	}
	src = "{% with xs|length as total %}{{ total }}{% endwith %}"
	if got := render(t, src, map[string]any{"xs": []int{1, 2}}); got != "2" {
		t.Fatalf("got %q", got)
	}
}

func TestComments(t *testing.T) {
	if got := render(t, "a{# hidden #}b", nil); got != "ab" {
		t.Fatalf("got %q", got)
	}
	if got := render(t, "a{% comment %}x{{ y }}z{% endcomment %}b", nil); got != "ab" {
		t.Fatalf("got %q", got)
	}
}

func TestInclude(t *testing.T) {
	s := NewSet()
	s.Add("header", "<h1>{{ title }}</h1>")
	s.Add("page", "{% include 'header' %}<p>body</p>")
	out, err := s.Render("page", map[string]any{"title": "Hi"})
	if err != nil {
		t.Fatal(err)
	}
	if out != "<h1>Hi</h1><p>body</p>" {
		t.Fatalf("got %q", out)
	}
}

func TestIncludeDynamicName(t *testing.T) {
	s := NewSet()
	s.Add("partial_a", "A")
	s.Add("page", "{% include which %}")
	out, err := s.Render("page", map[string]any{"which": "partial_a"})
	if err != nil {
		t.Fatal(err)
	}
	if out != "A" {
		t.Fatalf("got %q", out)
	}
}

func TestExtends(t *testing.T) {
	s := NewSet()
	s.Add("base", "<head>{% block head %}default{% endblock %}</head><body>{% block body %}{% endblock %}</body>")
	s.Add("child", "{% extends 'base' %}{% block body %}child body{% endblock %}")
	out, err := s.Render("child", nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != "<head>default</head><body>child body</body>" {
		t.Fatalf("got %q", out)
	}
}

func TestExtendsTwoLevels(t *testing.T) {
	s := NewSet()
	s.Add("base", "[{% block a %}A{% endblock %}|{% block b %}B{% endblock %}]")
	s.Add("mid", "{% extends 'base' %}{% block a %}mid-a{% endblock %}")
	s.Add("leaf", "{% extends 'mid' %}{% block b %}leaf-b{% endblock %}")
	out, err := s.Render("leaf", nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != "[mid-a|leaf-b]" {
		t.Fatalf("got %q", out)
	}
}

func TestExtendsCycleDetected(t *testing.T) {
	s := NewSet()
	s.Add("a", "{% extends 'b' %}")
	s.Add("b", "{% extends 'a' %}")
	if _, err := s.Render("a", nil); err == nil {
		t.Fatal("extends cycle not detected")
	}
}

func TestIncludeCycleDetected(t *testing.T) {
	s := NewSet()
	s.Add("a", "{% include 'b' %}")
	s.Add("b", "{% include 'a' %}")
	if _, err := s.Render("a", nil); err == nil {
		t.Fatal("include cycle not detected")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"{% if x %}no end",
		"{% for x in %}{% endfor %}",
		"{% endif %}",
		"{% unknowntag %}",
		"{{ }}",
		"{{ x|nosuchfilter }}",
		"{% for in xs %}{% endfor %}",
		"{{ x|",
		"{% block %}{% endblock %}",
		"{% block a %}{% endblock %}{% block a %}{% endblock %}",
		"{% with %}{% endwith %}",
	} {
		s := NewSet()
		s.Add("t", src)
		if _, err := s.Render("t", nil); err == nil {
			t.Errorf("source %q rendered without error", src)
		}
	}
}

func TestUnclosedDelimiter(t *testing.T) {
	renderErr(t, "{{ x", nil)
	renderErr(t, "{% if x %}{{ y }", map[string]any{"x": true})
}

func TestLoneBracesAreText(t *testing.T) {
	if got := render(t, "a { b } c {x}", nil); got != "a { b } c {x}" {
		t.Fatalf("got %q", got)
	}
	if got := render(t, "{", nil); got != "{" {
		t.Fatalf("got %q", got)
	}
}

func TestTemplateNotFound(t *testing.T) {
	s := NewSet()
	if _, err := s.Render("missing", nil); err == nil {
		t.Fatal("missing template rendered")
	}
}

func TestSetCachesParse(t *testing.T) {
	s := NewSet()
	s.Add("t", "{{ x }}")
	t1, err := s.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("Get did not cache the parsed template")
	}
	s.Add("t", "{{ y }}") // re-register invalidates
	t3, err := s.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Fatal("Add did not invalidate the cache")
	}
}

func TestConcurrentRenders(t *testing.T) {
	s := NewSet()
	s.Add("t", "{% for x in xs %}{{ x }}{% endfor %}")
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			out, err := s.Render("t", map[string]any{"xs": []int{1, 2, 3}})
			if err == nil && out != "123" {
				err = errUnexpected(out)
			}
			done <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errUnexpected string

func (e errUnexpected) Error() string { return "unexpected output: " + string(e) }

func TestCustomFilter(t *testing.T) {
	s := NewSet()
	s.Filters().Register("shout", func(v any, _ any, _ bool) (any, error) {
		return strings.ToUpper(Stringify(v)) + "!", nil
	})
	s.Add("t", "{{ word|shout }}")
	out, err := s.Render("t", map[string]any{"word": "go"})
	if err != nil {
		t.Fatal(err)
	}
	if out != "GO!" {
		t.Fatalf("got %q", out)
	}
}

func TestStringLiteralWithSpaces(t *testing.T) {
	got := render(t, `{{ x|default:"no value here" }}`, nil)
	if got != "no value here" {
		t.Fatalf("got %q", got)
	}
}

func TestAppendRender(t *testing.T) {
	s := NewSet()
	s.Add("ok", "<p>{{ v }}</p>")
	s.Add("bad", `<p>{% include "missing" %}</p>`)
	got, err := s.AppendRender([]byte("<!--x-->"), "ok", map[string]any{"v": "a&b"})
	if err != nil || string(got) != "<!--x--><p>a&amp;b</p>" {
		t.Fatalf("AppendRender = %q, %v", got, err)
	}
	for _, name := range []string{"bad", "absent"} {
		got, err := s.AppendRender([]byte("keep"), name, nil)
		if err == nil || string(got) != "keep" {
			t.Fatalf("AppendRender(%s) = %q, %v; want dst unchanged and an error", name, got, err)
		}
	}
}

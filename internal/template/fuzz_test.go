package template_test

import (
	"bytes"
	"testing"

	"stagedweb/internal/template"
	"stagedweb/internal/tpcw"
)

// fuzzName is the name the fuzzed source is registered under. It appears
// in no seed, so a mutated {% include %} rarely reaches it.
const fuzzName = "fuzz-under-test"

// FuzzTemplateRender parses arbitrary sources next to the TPC-W
// templates. A source that parses must render without panicking, and
// must render identically twice with another template's render in
// between: the pooled render state carries nothing from one render to
// the next.
func FuzzTemplateRender(f *testing.F) {
	for _, src := range tpcw.Templates() {
		f.Add(src)
	}
	for _, src := range edgeTemplates {
		f.Add(src)
	}
	home := tpcwGoldenCases()[1] // tpcw_home_customer
	// Small iterables keep nested loops from exploding.
	data := map[string]any{
		"subjects": tpcw.Subjects[:3], "promotions": promos()[:2], "lines": cartLines(),
		"c_id": 7, "c_fname": "Zoë", "name": "<b>", "xs": []any{1, "two", 3.5},
		"prices": map[string]float64{"b": 2, "a": 1.25}, "i_cost": 22.75, "when": orderDate,
	}
	f.Fuzz(func(t *testing.T, src string) {
		s := template.NewSet()
		s.AddAll(tpcw.Templates())
		s.Add(fuzzName, src)
		if _, err := s.Get(fuzzName); err != nil {
			return
		}
		first, err1 := s.Render(fuzzName, data)
		if _, err := s.Render(home.template, home.data); err != nil {
			t.Fatal(err)
		}
		second, err2 := s.AppendRender([]byte("prefix"), fuzzName, data)
		if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
			t.Fatalf("errors differ: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if string(second) != "prefix" {
				t.Fatalf("failed AppendRender changed dst: %q", second)
			}
			return
		}
		if !bytes.Equal(second, append([]byte("prefix"), first...)) {
			t.Fatalf("renders differ:\n%q\n%q", first, second[len("prefix"):])
		}
	})
}

package template_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stagedweb/internal/template"
	"stagedweb/internal/tpcw"
)

// goldenCase renders one template from a fixed data map.
type goldenCase struct {
	name     string // golden file testdata/golden/<name>.html
	template string
	data     map[string]any
}

var (
	pubDate   = time.Date(2008, time.March, 14, 0, 0, 0, 0, time.UTC)
	orderDate = time.Date(2009, time.June, 29, 13, 45, 30, 0, time.UTC)
)

// item returns a row shaped like the item/author join the TPC-W pages
// receive from sqldb: int64 ids, float64 costs, time.Time dates.
func item(id int64, title string) map[string]any {
	return map[string]any{
		"i_id": id, "i_title": title, "i_thumbnail": "/img/thumb_7.gif",
		"i_cost": 12.5 + float64(id)/4, "i_pub_date": pubDate,
		"a_fname": "Ann", "a_lname": "O'Brien", "qty": id * 3,
	}
}

func promos() []map[string]any {
	return []map[string]any{item(11, "Rust & Ruin"), item(12, `The "Quoted" Book`), item(13, "<i>Tags</i>")}
}

func cartLines() []map[string]any {
	l1 := item(21, "Cooking for <Two>")
	l1["scl_qty"], l1["subtotal"] = int64(2), 2*l1["i_cost"].(float64)
	l2 := item(22, "Plain")
	l2["scl_qty"], l2["subtotal"] = int64(1), l2["i_cost"].(float64)
	return []map[string]any{l1, l2}
}

// tpcwGoldenCases covers all 14 TPC-W pages (two of them in two states).
func tpcwGoldenCases() []goldenCase {
	detail := item(42, "Gödel, Escher & Bach")
	detail["i_image"], detail["i_subject"], detail["i_desc"] = "/img/image_42.gif", "SCIENCE-NATURE", "An eternal <golden> braid"
	detail["i_srp"], detail["i_stock"] = 30.0, int64(17)
	order := map[string]any{
		"o_id": int64(77), "o_date": orderDate, "o_status": "SHIPPED", "o_ship_type": "AIR",
		"o_total": 123.456, "lines": []map[string]any{
			{"ol_i_id": int64(5), "ol_qty": int64(3), "i_title": "Five", "i_cost": 9.99},
			{"ol_i_id": int64(6), "ol_qty": int64(1), "i_title": "Six & Seven", "i_cost": 100.0},
		},
	}
	return []goldenCase{
		{"tpcw_home_guest", "home.html", map[string]any{"subjects": tpcw.Subjects, "promotions": promos()}},
		{"tpcw_home_customer", "home.html", map[string]any{
			"subjects": tpcw.Subjects, "promotions": promos(),
			"c_id": 7, "c_fname": "Zoë", "c_lname": "d'Arc",
		}},
		{"tpcw_shopping_cart", "shopping_cart.html", map[string]any{
			"sc_id": 9, "lines": cartLines(), "sc_sub_total": 61.0, "promotions": promos(),
		}},
		{"tpcw_shopping_cart_empty", "shopping_cart.html", map[string]any{
			"sc_id": 10, "lines": []map[string]any{}, "sc_sub_total": 0.0, "promotions": promos(),
		}},
		{"tpcw_customer_registration", "customer_registration.html", map[string]any{"sc_id": 9}},
		{"tpcw_buy_request", "buy_request.html", map[string]any{
			"c_id": int64(7), "c_uname": "user7", "c_fname": "Zoë", "c_lname": "d'Arc", "c_discount": 0.125,
			"addr_street1": "1 Main St", "addr_city": "Springfield", "addr_state": "OR", "addr_zip": "97477",
			"co_name": "United States", "sc_id": 9, "lines": cartLines(), "sc_sub_total": 61.0,
			"tax": 5.0325, "total": 66.0325,
		}},
		{"tpcw_buy_confirm", "buy_confirm.html", map[string]any{"o_id": int64(501), "total": 66.0325, "ship_type": "UPS"}},
		{"tpcw_order_inquiry", "order_inquiry.html", map[string]any{}},
		{"tpcw_order_display", "order_display.html", order},
		{"tpcw_order_display_none", "order_display.html", map[string]any{}},
		{"tpcw_search_request", "search_request.html", map[string]any{"promotions": promos()}},
		{"tpcw_execute_search", "execute_search.html", map[string]any{
			"field": "title", "terms": `<script>"x"</script>`,
			"results": []map[string]any{item(1, "Alpha"), item(2, "Beta & Gamma")},
		}},
		{"tpcw_new_products", "new_products.html", map[string]any{
			"subject": "SCIENCE-FICTION", "results": []map[string]any{item(3, "Dune"), item(4, "Solaris")},
		}},
		{"tpcw_best_sellers", "best_sellers.html", map[string]any{
			"subject": "NON-FICTION", "results": []map[string]any{item(8, "First"), item(9, "Second"), item(10, "Third")},
		}},
		{"tpcw_product_detail", "product_detail.html", detail},
		{"tpcw_admin_request", "admin_request.html", map[string]any{
			"i_id": int64(42), "i_title": "Gödel, Escher & Bach", "i_cost": 22.0, "i_image": "/img/image_42.gif",
		}},
		{"tpcw_admin_response", "admin_response.html", map[string]any{
			"i_id": int64(42), "i_title": "Gödel, Escher & Bach", "i_cost": 22.75,
			"related": []any{43, 44, 45, 46, 47},
		}},
	}
}

// edgeTemplates exercises the tag and value paths a lean renderer is
// most likely to get wrong.
var edgeTemplates = map[string]string{
	"nested_loops.html": `{% for row in rows %}[{{ forloop.counter }}/{{ forloop.revcounter }}{% if forloop.first %} first{% endif %}{% if forloop.last %} last{% endif %}:{% for c in row %}({{ forloop.parentloop.counter }}.{{ forloop.counter0 }}={{ c }}{% if forloop.parentloop.parentloop %}!{% endif %}){% endfor %}]
{% endfor %}after={{ forloop.counter }}|{{ c }}|{{ row }}`,
	"reversed.html":     `{% for x in xs reversed %}{{ x }}{% if not forloop.last %},{% endif %}{% endfor %}|{% for r in rows reversed %}{{ r.name }}@{{ forloop.counter }}{% endfor %}|{% for ch in word reversed %}{{ ch }}{% endfor %}`,
	"empty.html":        `{% for x in none %}{{ x }}{% empty %}none{% endfor %}|{% for x in blank %}{{ x }}{% empty %}blank{% endfor %}|{% for x in nomaps %}{{ x }}{% empty %}nomaps{% endfor %}|{% for x in xs %}{{ x }}{% empty %}unused{% endfor %}`,
	"map_iter.html":     `{% for k, v in prices %}{{ k }}={{ v|floatformat:2 }}{% if not forloop.last %}; {% endif %}{% endfor %}|{% for k, v in counts %}{{ forloop.counter }}:{{ k }}={{ v }} {% endfor %}|{% for p in counts %}{{ p.key }}/{{ p.value }} {% endfor %}`,
	"with.html":         `{{ name }}|{% with name="inner" %}{{ name }}{% with name=other|upper %}{{ name }}{% endwith %}{{ name }}{% endwith %}|{{ name }}|{% with rows.1.name as n %}{{ n }}{% for r in rows %}{% with label=r.name %}{{ label }}{{ n }}{% endwith %}{% endfor %}{% endwith %}|{{ label }}`,
	"include_loop.html": `{% for r in rows %}{% include "row.html" %}{% endfor %}|{% for name in partials %}{% include name %}{% endfor %}`,
	"row.html":          `<{{ r.name }}#{{ forloop.counter }}{% if forloop.last %}.{% endif %}>`,
	"a.html":            `<i>{{ forloop.counter }}</i>`,
	"b.html":            `<b>{{ name|title }}</b>`,
	"level1.html":       `L1[{% block head %}h1{% endblock %}|{% block body %}b1{% endblock %}|{% block foot %}f1{% endblock %}]{% include "b.html" %}`,
	"level2.html":       `{% extends "level1.html" %}{% block body %}b2<{% block inner %}i2{% endblock %}>{% endblock %}{% block foot %}f2{% endblock %}`,
	"level3.html":       `{% extends "level2.html" %}{% block inner %}i3 {{ name }}{% endblock %}{% block foot %}f3{% for x in xs %}{{ x }}{% endfor %}{% endblock %}`,
	"forloop_print.html": `{% for x in xs %}{% for y in strs %}{{ forloop }}
{% endfor %}{% endfor %}`,
	"values.html":  `{{ i }} {{ i64 }} {{ f }} {{ whole }} {{ neg }} {{ yes }} {{ no }} {{ nothing }}|{{ html }}|{{ html|safe }}|{{ html|escape }}|{{ safe }}|{{ when }}|{{ point }}|{{ point.X }}|{{ point.Sum }}|{{ ptr.Y }}|{{ strs }}|{{ xs.1 }}|{{ word.0 }}|{{ missing.deep.path }}|{{ err }}`,
	"filters.html": `{{ "hello wORLD  twice"|title }}|{{ "ALREADY Title"|title }}|{{ phrase|urlencode }}|{{ "plain-path/ok.txt"|urlencode }}|{{ 7|urlencode }}|{{ nothing|title }}|{{ i|title }}|{{ xs|length }}|{{ xs|join:"-" }}|{{ f|floatformat }}|{{ f|floatformat:-2 }}|{{ whole|floatformat:-2 }}|{{ html|upper }}|{{ nothing|default:"dflt" }}|{{ xs|first }}{{ xs|last }}|{{ phrase|truncatechars:5 }}`,
}

type point struct{ X, Y int }

func (p point) Sum() int { return p.X + p.Y }

func edgeGoldenCases() []goldenCase {
	rows := []map[string]any{{"name": "ann"}, {"name": "bob"}, {"name": "cy"}}
	grid := []any{[]any{"a", "b"}, []string{"c"}, []int{}, []any{1, 2, 3}}
	base := map[string]any{
		"rows": rows, "xs": []any{1, "two", 3.5}, "word": "héllo", "name": "outer name",
		"other": "other", "partials": []string{"a.html", "b.html", "a.html"},
		"prices": map[string]float64{"b": 2, "a": 1.25, "c": 0.5},
		"counts": map[string]int{"z": 26, "m": 13, "a": 1},
		"none":   nil, "blank": []any{}, "nomaps": []map[string]any{},
		"i": 42, "i64": int64(-7), "f": 3.14159, "whole": 2.0, "neg": -0.5,
		"yes": true, "no": false, "nothing": nil,
		"html": `<a href="x">Tom & 'Jerry'</a>`, "safe": template.Safe("<b>safe</b>"),
		"when": orderDate, "point": point{3, 4}, "ptr": &point{5, 6},
		"strs": []string{"p", "q"}, "phrase": "a b&c/d?e=f",
		"err": os.ErrNotExist,
	}
	nested := map[string]any{"rows": grid}
	return []goldenCase{
		{"edge_nested_loops", "nested_loops.html", nested},
		{"edge_reversed", "reversed.html", base},
		{"edge_empty", "empty.html", base},
		{"edge_map_iter", "map_iter.html", base},
		{"edge_with", "with.html", base},
		{"edge_include_loop", "include_loop.html", base},
		{"edge_extends3", "level3.html", base},
		{"edge_forloop_print", "forloop_print.html", base},
		{"edge_values", "values.html", base},
		{"edge_filters", "filters.html", base},
	}
}

func goldenSet() *template.Set {
	s := template.NewSet()
	s.AddAll(tpcw.Templates())
	s.AddAll(edgeTemplates)
	return s
}

// TestRenderGoldens pins the renderer's output byte for byte: all 14
// TPC-W pages from fixed data maps, plus edge-case templates.
func TestRenderGoldens(t *testing.T) {
	s := goldenSet()
	for _, c := range append(tpcwGoldenCases(), edgeGoldenCases()...) {
		t.Run(c.name, func(t *testing.T) {
			got, err := s.Render(c.template, c.data)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", c.name+".html"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from golden\n got: %q\nwant: %q", c.template, got, want)
			}
		})
	}
}

// TestRenderGoldensCoverAllPages checks the goldens include every TPC-W
// page's template.
func TestRenderGoldensCoverAllPages(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range tpcwGoldenCases() {
		seen[c.template] = true
	}
	for _, page := range tpcw.Pages {
		if !seen[strings.TrimPrefix(page, "/")+".html"] {
			t.Errorf("no golden for %s", page)
		}
	}
}

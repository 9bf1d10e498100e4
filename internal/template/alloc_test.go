package template_test

import "testing"

// TestRenderAllocs guards the allocation-lean render path: a steady-state
// render reuses its pooled state, so what it allocates is the values its
// filters produce plus the returned string.
func TestRenderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	bounds := map[string]float64{
		"tpcw_home_customer":  40,
		"tpcw_product_detail": 12,
	}
	s := goldenSet()
	for _, c := range tpcwGoldenCases() {
		bound, ok := bounds[c.name]
		if !ok {
			continue
		}
		if _, err := s.Render(c.template, c.data); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := s.Render(c.template, c.data); err != nil {
				t.Fatal(err)
			}
		})
		if got > bound {
			t.Errorf("%s: %.1f allocs per render, want <= %.0f", c.template, got, bound)
		}
	}
}

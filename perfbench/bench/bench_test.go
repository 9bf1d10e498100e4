package bench

import (
	"math"
	"reflect"
	"testing"
)

func TestSelfTimeOverlappingAndNested(t *testing.T) {
	parent := Interval{0, 100}
	cases := []struct {
		name     string
		children []Interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []Interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []Interval{{10, 40}, {30, 60}}, 50},
		{"nested", []Interval{{10, 60}, {20, 30}, {40, 50}}, 50},
		{"sticking out", []Interval{{-20, 10}, {90, 130}}, 80},
		{"outside", []Interval{{-20, -10}, {100, 120}}, 100},
		{"covering", []Interval{{-5, 105}}, 0},
	}
	for _, c := range cases {
		if got := SelfTime(parent, c.children); got != c.want {
			t.Errorf("%s: SelfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLayersSumToServerSpan(t *testing.T) {
	r := &Request{
		Server: &ServerSpan{Start: 100, End: 200},
		// The handler sticks out of the server span; its statements
		// overlap each other and the handler's end.
		Handler: &HandlerSpan{Start: 90, End: 210, DB: []DBSpan{{Start: 120, End: 140}, {Start: 130, End: 150}, {Start: 190, End: 220}}},
	}
	b := r.Layers()
	if want := (Breakdown{Server: 0, Handler: 60, DB: 40}); b != want {
		t.Fatalf("Layers = %+v, want %+v", b, want)
	}
	r = &Request{Server: &ServerSpan{Start: 0, End: 50}, Static: &StaticSpan{Start: 10, End: 15}}
	if b := r.Layers(); b.Server+b.Handler+b.DB != 50 || b.Server != 45 {
		t.Fatalf("static Layers = %+v, want server 45 of 50", b)
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {100000, 99},
	}
	for _, c := range cases {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := TailPercentile(c.n); p > 0 && c.n-rank(p, c.n) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, p, c.n-rank(p, c.n))
		}
	}
}

func TestFailuresEnterPercentilesAsInfinity(t *testing.T) {
	var samples []float64
	for i := 1; i <= 1000; i++ {
		samples = append(samples, float64(i))
	}
	base := Summarize(append([]float64(nil), samples...))
	if base.TailPct != 99 || base.Tail != 990 || base.P50 != 500 {
		t.Fatalf("baseline summary %+v", base)
	}
	// Eleven failures push p99 past every completed interaction.
	for i := 0; i < 11; i++ {
		samples = append(samples, math.Inf(1))
	}
	s := Summarize(samples)
	if s.N != 1011 || !math.IsInf(s.Tail, 1) {
		t.Fatalf("with failures: %+v, want N=1011 and an infinite p99", s)
	}
	if s.P50 <= base.P50 {
		t.Fatalf("failures must count against the median too: %g <= %g", s.P50, base.P50)
	}
}

func TestSessionStreamDeterministic(t *testing.T) {
	for _, name := range []string{"browse", "quick", "checkout"} {
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		stream := func(seed int64, k int) []string {
			s := NewSession(w, seed, k)
			var out []string
			for i := 0; i < 300; i++ {
				page, target := s.Next()
				out = append(out, target)
				s.Observe(page, []byte(`<a href="/customer_registration?sc_id=77">`+page+`</a>`))
			}
			return out
		}
		a, b := stream(42, 0), stream(42, 0)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different streams", name)
		}
		if reflect.DeepEqual(a, stream(43, 0)) || reflect.DeepEqual(a, stream(42, 1)) {
			t.Fatalf("%s: another seed or client gave the same stream", name)
		}
	}
	if !reflect.DeepEqual(Arrivals(5, 100, 3), Arrivals(5, 100, 3)) {
		t.Fatal("arrivals differ for one seed")
	}
	if n := len(Arrivals(5, 100, 3)); n < 240 || n > 360 {
		t.Fatalf("%d arrivals in 3 s at 100/s", n)
	}
}

func TestLinkClientHandlerDB(t *testing.T) {
	tr := &Trace{
		// Two concurrent /home requests and one image.
		Server: []ServerSpan{
			{Page: "/home", Start: 100, End: 200},
			{Page: "/home", Start: 110, End: 260},
			{Page: "/img/a.gif", Start: 300, End: 320},
		},
		Handlers: []HandlerSpan{
			{ID: 8, Page: "/home", Start: 120, End: 250, DB: []DBSpan{{Stmt: "q2", Start: 130, End: 140}}},
			{ID: 7, Page: "/home", Start: 105, End: 150, DB: []DBSpan{{Stmt: "q1", Start: 110, End: 120}}},
		},
		Statics: []StaticSpan{{Path: "/img/a.gif", Start: 305, End: 310}},
	}
	clients := []ClientSpan{
		{ID: 7, Page: "/home", Start: 90, End: 210},
		{ID: 8, Page: "/home", Start: 95, End: 270},
		{ID: 9, Page: "/img/a.gif", Start: 290, End: 330},
	}
	reqs := Link(tr, clients)
	if len(reqs) != 3 {
		t.Fatalf("%d requests", len(reqs))
	}
	for i, wantID := range []int64{7, 8, 9} {
		r := reqs[i]
		if r.Client == nil || r.Client.ID != wantID {
			t.Fatalf("request %d: client %+v, want id %d", i, r.Client, wantID)
		}
	}
	if reqs[0].Handler.ID != 7 || reqs[0].Handler.DB[0].Stmt != "q1" {
		t.Fatalf("first request linked to handler %+v", reqs[0].Handler)
	}
	if reqs[1].Handler.ID != 8 || reqs[1].Handler.DB[0].Stmt != "q2" {
		t.Fatalf("second request linked to handler %+v", reqs[1].Handler)
	}
	if reqs[2].Static == nil || reqs[2].Handler != nil {
		t.Fatalf("image request linked to %+v", reqs[2])
	}

	// Without ids (the balancer drops the header), clients link by
	// containment; a server span may end just after its client span.
	for i := range tr.Handlers {
		tr.Handlers[i].ID = 0
	}
	clients[1].End = 259
	reqs = Link(tr, clients)
	if reqs[0].Client.ID != 7 || reqs[1].Client.ID != 8 {
		t.Fatalf("containment linked clients %d and %d", reqs[0].Client.ID, reqs[1].Client.ID)
	}
}

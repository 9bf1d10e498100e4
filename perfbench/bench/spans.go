package bench

import "sort"

// Spans are wall-clock intervals in Unix nanoseconds. The server process
// and the generator run on one host and read the same clock, so their
// spans can be compared directly.

// DBSpan is one statement a handler ran.
type DBSpan struct {
	Stmt  string `json:"stmt"`
	Write bool   `json:"write"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Rows  int    `json:"rows"`
}

// HandlerSpan is one call of a page handler with its statements. ID is
// the generator's request id when the request header reached the
// handler (the cluster balancer does not forward it), else 0.
type HandlerSpan struct {
	ID    int64    `json:"id"`
	Page  string   `json:"page"`
	Start int64    `json:"start"`
	End   int64    `json:"end"`
	DB    []DBSpan `json:"db"`
}

// StaticSpan is one static-asset lookup.
type StaticSpan struct {
	Path  string `json:"path"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// ServerSpan is one request as the server's completion event reports
// it: from acquisition to the response written.
type ServerSpan struct {
	Page   string `json:"page"`
	Status int    `json:"status"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Trace is everything the server process recorded.
type Trace struct {
	Server   []ServerSpan  `json:"server"`
	Handlers []HandlerSpan `json:"handlers"`
	Statics  []StaticSpan  `json:"statics"`
}

// ClientSpan is one HTTP request as the generator saw it: from writing
// the request to reading the whole response.
type ClientSpan struct {
	ID    int64
	Page  string
	Start int64
	End   int64
}

// Interval is a half-open span of time.
type Interval struct{ Start, End int64 }

// Covered returns how much of [lo, hi) the union of ivs covers.
// Children that overlap each other or stick out of the parent are
// counted once, and only inside the parent.
func Covered(lo, hi int64, ivs []Interval) int64 {
	clipped := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.Start, lo), min(iv.End, hi)
		if s < e {
			clipped = append(clipped, Interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var total int64
	var curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv.Start > curE {
			total += curE - curS
			curS, curE = iv.Start, iv.End
			continue
		}
		curE = max(curE, iv.End)
	}
	return total + curE - curS
}

// SelfTime is a span's duration minus the part its children cover.
func SelfTime(parent Interval, children []Interval) int64 {
	return parent.End - parent.Start - Covered(parent.Start, parent.End, children)
}

// Request is one request with the spans that belong to it. Handler is
// set for dynamic pages, Static for assets; Client is nil when no client
// span matched.
type Request struct {
	Client  *ClientSpan
	Server  *ServerSpan
	Handler *HandlerSpan
	Static  *StaticSpan
}

// Breakdown splits a request's server span into layer self times, in
// nanoseconds. Each child is clipped to its parent, and a request has
// one handler or static call whose statements run one after another, so
// Server + Handler + DB always equals the server span's duration.
type Breakdown struct {
	Server, Handler, DB int64
}

// Layers computes the request's self-time breakdown.
func (r *Request) Layers() Breakdown {
	srv := Interval{r.Server.Start, r.Server.End}
	var child Interval
	var grandchildren []Interval
	switch {
	case r.Handler != nil:
		child = clip(Interval{r.Handler.Start, r.Handler.End}, srv)
		for _, d := range r.Handler.DB {
			grandchildren = append(grandchildren, clip(Interval{d.Start, d.End}, child))
		}
	case r.Static != nil:
		child = clip(Interval{r.Static.Start, r.Static.End}, srv)
	}
	var b Breakdown
	b.Server = SelfTime(srv, []Interval{child})
	b.DB = Covered(child.Start, child.End, grandchildren)
	b.Handler = child.End - child.Start - b.DB
	return b
}

func clip(iv, parent Interval) Interval {
	s, e := max(iv.Start, parent.Start), min(iv.End, parent.End)
	if s >= e {
		return Interval{parent.Start, parent.Start}
	}
	return Interval{s, e}
}

// Link joins server spans to the handler or static span they contain,
// and client spans to the server span of the same request. A handler
// that carries a request id links to the client span with that id;
// otherwise a child is matched by page and by lying inside its parent's
// interval, earliest first. The generator keeps at most Conns requests
// in flight, so such matches are unambiguous except between concurrent
// requests for the same page, which then have near-equal spans.
func Link(tr *Trace, clients []ClientSpan) []*Request {
	reqs := make([]*Request, len(tr.Server))
	var srvIvs []containable
	for i := range tr.Server {
		s := &tr.Server[i]
		reqs[i] = &Request{Server: s}
		srvIvs = append(srvIvs, containable{key: s.Page, iv: Interval{s.Start, s.End}, idx: i})
	}
	var hIvs, sIvs []containable
	for i, h := range tr.Handlers {
		hIvs = append(hIvs, containable{key: h.Page, iv: Interval{h.Start, h.End}, idx: i})
	}
	for i, s := range tr.Statics {
		sIvs = append(sIvs, containable{key: s.Path, iv: Interval{s.Start, s.End}, idx: i})
	}
	handlerOwner := map[int]*Request{}
	for parent, child := range matchInside(srvIvs, hIvs, 0) {
		reqs[parent].Handler = &tr.Handlers[child]
		handlerOwner[child] = reqs[parent]
	}
	for parent, child := range matchInside(srvIvs, sIvs, 0) {
		reqs[parent].Static = &tr.Statics[child]
	}

	byID := map[int64]*Request{}
	for child, r := range handlerOwner {
		if id := tr.Handlers[child].ID; id > 0 {
			byID[id] = r
		}
	}
	var cIvs []containable
	for i := range clients {
		c := &clients[i]
		if r, ok := byID[c.ID]; ok && c.ID > 0 {
			r.Client = c
			continue
		}
		cIvs = append(cIvs, containable{key: c.Page, iv: Interval{c.Start, c.End}, idx: i})
	}
	var free []containable
	for i, r := range reqs {
		if r.Client == nil {
			free = append(free, srvIvs[i])
		}
	}
	for parent, child := range matchInside(cIvs, free, ClientSlackNS) {
		reqs[child].Client = &clients[parent]
	}
	return reqs
}

// containable is an interval tagged with a page key and its index in
// the caller's slice.
type containable struct {
	key string
	iv  Interval
	idx int
}

// ClientSlackNS is how far a server span may end after the client span
// of its request: the server stamps completion after writing the last
// byte, and the client may read that byte first.
const ClientSlackNS = int64(1_000_000)

// matchInside pairs each parent with at most one unused child of the
// same key lying inside it (ending at most slack after it), taking
// parents in start order and, for each, the earliest-starting
// candidate. It returns parent idx -> child idx.
func matchInside(parents, children []containable, slack int64) map[int]int {
	byKey := map[string][]containable{}
	for _, c := range children {
		byKey[c.key] = append(byKey[c.key], c)
	}
	for _, cs := range byKey {
		sort.Slice(cs, func(i, j int) bool { return cs[i].iv.Start < cs[j].iv.Start })
	}
	ps := append([]containable(nil), parents...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].iv.Start < ps[j].iv.Start })
	used := map[string][]bool{}
	next := map[string]int{}
	out := map[int]int{}
	for _, p := range ps {
		cs := byKey[p.key]
		if used[p.key] == nil {
			used[p.key] = make([]bool, len(cs))
		}
		u := used[p.key]
		// Children that start before this parent cannot lie inside it or
		// any later parent.
		for next[p.key] < len(cs) && cs[next[p.key]].iv.Start < p.iv.Start {
			next[p.key]++
		}
		for k := next[p.key]; k < len(cs) && cs[k].iv.Start <= p.iv.End; k++ {
			if !u[k] && cs[k].iv.End <= p.iv.End+slack {
				u[k] = true
				out[p.idx] = cs[k].idx
				break
			}
		}
	}
	return out
}

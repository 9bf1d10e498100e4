package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/webtest"
	"stagedweb/perfbench/bench"
)

// outcome is one finished interaction: the page plus its images.
type outcome struct {
	page    string
	start   time.Time     // when it was sent, or due in the open loop
	latency time.Duration // from start
	ok      bool
}

// phaseResult aggregates one load phase.
type phaseResult struct {
	begin    time.Time
	wall     time.Duration
	requests int64 // HTTP requests answered with a correct response
	outcomes []outcome
	late     []float64 // open loop: generator lateness per arrival, ms
	clients  []bench.ClientSpan
}

// checker holds what a response must match.
type checker struct {
	assets  map[string][]byte
	markers map[string]string

	mu     sync.Mutex
	wrong  []string // first few wrong outputs, for the report
	nWrong int
}

func (ck *checker) fail(format string, args ...any) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.nWrong++
	if len(ck.wrong) < 5 {
		ck.wrong = append(ck.wrong, fmt.Sprintf(format, args...))
	}
}

// client is one generator connection slot with its session.
type client struct {
	addr  string
	w     *bench.Workload
	sess  *bench.Session
	ck    *checker
	trace bool
	ids   *atomic.Int64
	clk   clock.Real

	conn net.Conn
	br   *bufio.Reader
	buf  bytes.Buffer

	requests int64
	spans    []bench.ClientSpan
	acked    [][2]int // [c_id, o_id] of every acknowledged purchase
}

func (c *client) close() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}

// get sends one GET on the client's connection, dialing first if it has
// none, and checks the status and Content-Length framing.
func (c *client) get(page, target string) (*webtest.Response, error) {
	start := c.clk.Now()
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	c.buf.Reset()
	c.buf.WriteString("GET ")
	c.buf.WriteString(target)
	c.buf.WriteString(" HTTP/1.1\r\nHost: tpcw\r\nUser-Agent: perfbench\r\nConnection: keep-alive\r\n")
	var id int64
	if c.trace {
		id = c.ids.Add(1)
		c.buf.WriteString(bench.IDHeader + ": " + strconv.FormatInt(id, 10) + "\r\n")
	}
	c.buf.WriteString("\r\n")
	if _, err := c.conn.Write(c.buf.Bytes()); err != nil {
		c.close()
		return nil, err
	}
	resp, err := webtest.ReadResponse(c.br)
	if err != nil {
		c.close()
		return nil, err
	}
	if c.trace {
		c.spans = append(c.spans, bench.ClientSpan{ID: id, Page: page, Start: start.UnixNano(), End: c.clk.Now().UnixNano()})
	}
	if resp.Status != 200 {
		return resp, fmt.Errorf("%s: status %d", target, resp.Status)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(resp.Body)) {
		return resp, fmt.Errorf("%s: Content-Length %q for a %d-byte body", target, cl, len(resp.Body))
	}
	c.requests++
	return resp, nil
}

// interact runs one interaction and checks every response in it.
func (c *client) interact() (page string, ok bool) {
	page, target := c.sess.Next()
	if c.w.FreshConn {
		defer c.close()
	}
	resp, err := c.get(page, target)
	if err != nil {
		c.ck.fail("%v", err)
		return page, false
	}
	if m := c.ck.markers[page]; !bytes.Contains(resp.Body, []byte(m)) {
		c.ck.fail("%s: page lacks its template marker %q", target, m)
		return page, false
	}
	if c.w.Images {
		for _, img := range bench.Images(resp.Body, bench.MaxImages) {
			ir, err := c.get(img, img)
			if err != nil {
				c.ck.fail("%v", err)
				return page, false
			}
			if want, known := c.ck.assets[img]; !known || !bytes.Equal(ir.Body, want) {
				c.ck.fail("%s: image bytes differ from tpcw.StaticAssets", img)
				return page, false
			}
		}
	}
	if page == tpcw.PageBuyConfirm {
		oID := bench.IntAfter(resp.Body, "Order number: <b>")
		if oID == 0 {
			c.ck.fail("%s: no order number in the confirmation", target)
			return page, false
		}
		c.acked = append(c.acked, [2]int{c.sess.Customer(), oID})
	}
	c.sess.Observe(page, resp.Body)
	return page, true
}

// closedLoop runs every client back to back, without think time, for d.
func closedLoop(clients []*client, d time.Duration) phaseResult {
	clk := clock.Real{}
	start := clk.Now()
	deadline := start.Add(d)
	per := make([][]outcome, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		c.requests, c.spans = 0, c.spans[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := clk.Now()
				if !t0.Before(deadline) {
					return
				}
				page, ok := c.interact()
				per[i] = append(per[i], outcome{page: page, start: t0, latency: clk.Since(t0), ok: ok})
			}
		}()
	}
	wg.Wait()
	return collect(clients, per, start, clk.Since(start), nil)
}

// openLoop sends interactions at the given arrival offsets. A due
// interaction waits in the generator while every client is busy, and its
// latency counts from the due time.
func openLoop(clients []*client, arrivals []float64) phaseResult {
	clk := clock.Real{}
	for _, c := range clients {
		c.requests, c.spans = 0, c.spans[:0]
	}
	// Sized to the number of sends, so the pacer never blocks.
	due := make(chan time.Time, len(arrivals))
	per := make([][]outcome, len(clients))
	late := make([]float64, 0, len(arrivals))
	start := clk.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for at := range due {
				page, ok := c.interact()
				per[i] = append(per[i], outcome{page: page, start: at, latency: clk.Since(at), ok: ok})
			}
		}()
	}
	for _, off := range arrivals {
		at := start.Add(time.Duration(off * float64(time.Second)))
		if wait := at.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		late = append(late, float64(clk.Since(at))/1e6)
		due <- at
	}
	close(due)
	wg.Wait()
	return collect(clients, per, start, clk.Since(start), late)
}

func collect(clients []*client, per [][]outcome, begin time.Time, wall time.Duration, late []float64) phaseResult {
	r := phaseResult{begin: begin, wall: wall, late: late}
	for i, c := range clients {
		r.requests += c.requests
		r.outcomes = append(r.outcomes, per[i]...)
		r.clients = append(r.clients, c.spans...)
	}
	return r
}

// ms is the interaction's latency in ms; a failed one misses every
// latency limit, so it counts as +Inf.
func (o outcome) ms() float64 {
	if !o.ok {
		return math.Inf(1)
	}
	return float64(o.latency) / 1e6
}

// latencies returns the class's interaction latencies in ms.
func (r *phaseResult) latencies(class string) []float64 {
	var out []float64
	for _, o := range r.outcomes {
		if bench.Class(o.page) == class {
			out = append(out, o.ms())
		}
	}
	return out
}

// windowMedian is the median over n equal windows of the phase (by
// start time) of each window's median latency of the class, in ms; a
// burst of noise on the host moves few windows.
func (r *phaseResult) windowMedian(class string, n int) (median float64, samples int) {
	per := make([][]float64, n)
	for _, o := range r.outcomes {
		if bench.Class(o.page) != class {
			continue
		}
		w := min(int(float64(o.start.Sub(r.begin))/float64(r.wall)*float64(n)), n-1)
		per[w] = append(per[w], o.ms())
		samples++
	}
	var medians []float64
	for _, v := range per {
		if len(v) > 0 {
			medians = append(medians, bench.Summarize(v).P50)
		}
	}
	return bench.Median(medians), samples
}

func (r *phaseResult) failed() int {
	n := 0
	for _, o := range r.outcomes {
		if !o.ok {
			n++
		}
	}
	return n
}

// markers maps each page to a string its template always renders: the
// page title, or for product detail (whose title is the book's) the
// add-to-cart form.
func markers() map[string]string {
	titles := map[string]string{
		tpcw.PageHome: "Home", tpcw.PageShoppingCart: "Shopping Cart",
		tpcw.PageCustomerReg: "Customer Registration", tpcw.PageBuyRequest: "Buy Request",
		tpcw.PageBuyConfirm: "Order Confirmation", tpcw.PageOrderInquiry: "Order Inquiry",
		tpcw.PageOrderDisplay: "Order Display", tpcw.PageSearchRequest: "Search",
		tpcw.PageExecuteSearch: "Search Results", tpcw.PageNewProducts: "New Products",
		tpcw.PageBestSellers: "Best Sellers", tpcw.PageAdminRequest: "Admin Request",
		tpcw.PageAdminResponse: "Admin Confirm",
	}
	m := map[string]string{tpcw.PageProductDetail: `<form action="/shopping_cart" method="get">`}
	for page, title := range titles {
		m[page] = "<title>TPC-W Bookstore - " + title + "</title>"
	}
	return m
}

// pageOf strips the query from a request target.
func pageOf(target string) string {
	p, _, _ := strings.Cut(target, "?")
	return p
}

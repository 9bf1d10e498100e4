package main

import (
	"strconv"
	"strings"
	"sync"

	"stagedweb/internal/clock"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/perfbench/bench"
)

// tracer keeps the spans of a traced run in memory until the generator
// asks for them. Spans come only from wrappers around the calls into
// the application and the database, and from completion events; the
// server's own code is not instrumented.
type tracer struct {
	clk      clock.Real
	mu       sync.Mutex
	server   []bench.ServerSpan
	handlers []bench.HandlerSpan
	statics  []bench.StaticSpan
}

func (t *tracer) now() int64 { return t.clk.Now().UnixNano() }

// complete records the server span of a finished request.
func (t *tracer) complete(ev server.CompletionEvent) {
	end := ev.Done.UnixNano()
	sp := bench.ServerSpan{Page: ev.Page, Status: ev.Status, Start: end - ev.ServerTime.Nanoseconds(), End: end}
	t.mu.Lock()
	t.server = append(t.server, sp)
	t.mu.Unlock()
}

func (t *tracer) snapshot() bench.Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return bench.Trace{
		Server:   append([]bench.ServerSpan(nil), t.server...),
		Handlers: append([]bench.HandlerSpan(nil), t.handlers...),
		Statics:  append([]bench.StaticSpan(nil), t.statics...),
	}
}

// tracedApp times every handler call (with its statements) and every
// static lookup of the application it wraps.
type tracedApp struct {
	server.App
	t *tracer
}

func (a tracedApp) Handler(path string) (server.HandlerFunc, bool) {
	h, ok := a.App.Handler(path)
	if !ok {
		return nil, false
	}
	return func(r *server.Request) (*server.Result, error) {
		sp := &bench.HandlerSpan{Page: path}
		sp.ID, _ = strconv.ParseInt(r.Header.Get(bench.IDHeader), 10, 64)
		r.DB = &timedConn{inner: r.DB, t: a.t, sp: sp}
		sp.Start = a.t.now()
		res, err := h(r)
		sp.End = a.t.now()
		a.t.mu.Lock()
		a.t.handlers = append(a.t.handlers, *sp)
		a.t.mu.Unlock()
		return res, err
	}, true
}

func (a tracedApp) Static(path string) ([]byte, string, bool) {
	start := a.t.now()
	body, ct, ok := a.App.Static(path)
	sp := bench.StaticSpan{Path: path, Start: start, End: a.t.now()}
	a.t.mu.Lock()
	a.t.statics = append(a.t.statics, sp)
	a.t.mu.Unlock()
	return body, ct, ok
}

// timedConn records one DB span per statement into its handler's span.
// A handler runs its statements one after another on one goroutine, so
// the span needs no lock until the handler returns.
type timedConn struct {
	inner server.DBConn
	t     *tracer
	sp    *bench.HandlerSpan
}

func (c *timedConn) Query(sql string, args ...any) (*sqldb.ResultSet, error) {
	start := c.t.now()
	rs, err := c.inner.Query(sql, args...)
	rows := 0
	if rs != nil {
		rows = rs.Len()
	}
	c.sp.DB = append(c.sp.DB, bench.DBSpan{Stmt: stmtName(sql), Start: start, End: c.t.now(), Rows: rows})
	return rs, err
}

func (c *timedConn) Exec(sql string, args ...any) (sqldb.ExecResult, error) {
	start := c.t.now()
	res, err := c.inner.Exec(sql, args...)
	c.sp.DB = append(c.sp.DB, bench.DBSpan{
		Stmt: stmtName(sql), Write: true, Start: start, End: c.t.now(), Rows: int(res.RowsAffected),
	})
	return res, err
}

// stmtName is a statement's shape: its SQL with whitespace collapsed,
// cut to a length that still tells the TPC-W statements apart.
func stmtName(sql string) string {
	s := strings.Join(strings.Fields(sql), " ")
	if len(s) > 72 {
		s = s[:72]
	}
	return s
}

package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"stagedweb/internal/httpwire"
	"stagedweb/internal/server"
	"stagedweb/internal/sqldb"
	"stagedweb/internal/tpcw"
	"stagedweb/internal/variant"
	"stagedweb/internal/webtest"
	"stagedweb/perfbench/bench"
)

// reference is the generator's own copy of the bookstore: a database
// populated exactly as the server's (one shard, the workload's storage
// engine and indexes) and the same application code, called directly.
type reference struct {
	db  *sqldb.DB
	app *tpcw.App
}

func newReference(w *bench.Workload) (*reference, error) {
	mvcc := variant.NewSettingsDecoder(w.Settings, nil).Bool("mvcc", false)
	db := sqldb.Open(sqldb.Options{Timescale: 1, Cost: sqldb.ZeroCostModel(), MVCC: mvcc})
	if err := tpcw.CreateTables(db); err != nil {
		return nil, err
	}
	counts, err := tpcw.Populate(db, bench.Population)
	if err != nil {
		return nil, err
	}
	if variant.IndexesEnabled(w.Settings, nil) {
		if err := tpcw.CreateExtraIndexes(db); err != nil {
			return nil, err
		}
	}
	return &reference{db: db, app: tpcw.NewApp(counts, nil)}, nil
}

// prechecked are the pages byte-compared before any write: the point
// lookup and the three scan pages, with fixed parameters.
var prechecked = []string{
	"/product_detail?i_id=4242",
	"/new_products?subject=ARTS",
	"/best_sellers?subject=COMPUTERS",
	"/execute_search?field=title&terms=GOLDEN",
}

// call runs the page's handler on conn and renders its template
// directly, as the server would.
func (ref *reference) call(conn server.DBConn, target string) (*server.Result, []byte, error) {
	path, raw, _ := strings.Cut(target, "?")
	q, err := httpwire.ParseQuery(raw)
	if err != nil {
		return nil, nil, err
	}
	h, ok := ref.app.Handler(path)
	if !ok {
		return nil, nil, fmt.Errorf("no handler for %s", path)
	}
	res, err := h(&server.Request{Path: path, Query: q, Header: httpwire.Header{}, DB: conn})
	if err != nil {
		return nil, nil, err
	}
	out, err := ref.app.Templates().Render(res.Template, res.Data)
	return res, []byte(out), err
}

// precheck compares the server's answers for the fixed pages with the
// reference's, byte for byte.
func precheck(addr string, ref *reference, ck *checker) error {
	conn := ref.db.Connect()
	defer conn.Close()
	for _, target := range prechecked {
		_, want, err := ref.call(conn, target)
		if err != nil {
			return fmt.Errorf("reference %s: %w", target, err)
		}
		resp, err := webtest.Get(addr, target)
		switch {
		case err != nil:
			ck.fail("precheck %s: %v", target, err)
		case resp.Status != 200:
			ck.fail("precheck %s: status %d", target, resp.Status)
		case !bytes.Equal(resp.Body, want):
			ck.fail("precheck %s: body differs from handler + Set.Render (%d vs %d bytes)", target, len(resp.Body), len(want))
		}
	}
	return nil
}

// stmtNames maps the replayed statements to a fragment of their SQL.
var stmtNames = []struct{ name, frag string }{
	{"item_pk", "SELECT i_id, i_title, i_thumbnail FROM item WHERE i_id = ?"},
	{"customer_uname", "WHERE c_uname = ?"},
	{"order_display_join", "JOIN item ON ol_i_id = i_id WHERE ol_o_id = ?"},
	{"new_products", "ORDER BY i_pub_date DESC"},
	{"best_sellers", "SUM(ol_qty)"},
	{"search_title", "WHERE i_title LIKE ?"},
	{"cart_line_upsert", "UPDATE shopping_cart_line SET scl_qty"},
	{"order_insert", "INSERT INTO orders"},
	{"item_update", "UPDATE item SET"},
}

// renderPages are the pages whose templates are replayed.
var renderPages = []string{"home", "product_detail", "shopping_cart", "new_products", "best_sellers", "execute_search"}

// stmt is one captured statement.
type stmt struct {
	sql   string
	args  []any
	write bool
}

// capture records the first statement of each replayed kind.
type capture struct {
	inner server.DBConn
	stmts map[string]stmt
}

func (c *capture) note(sql string, args []any, write bool) {
	flat := strings.Join(strings.Fields(sql), " ")
	for _, s := range stmtNames {
		if _, seen := c.stmts[s.name]; !seen && strings.Contains(flat, s.frag) {
			c.stmts[s.name] = stmt{sql: sql, args: append([]any(nil), args...), write: write}
		}
	}
}

func (c *capture) Query(sql string, args ...any) (*sqldb.ResultSet, error) {
	c.note(sql, args, false)
	return c.inner.Query(sql, args...)
}

func (c *capture) Exec(sql string, args ...any) (sqldb.ExecResult, error) {
	c.note(sql, args, true)
	return c.inner.Exec(sql, args...)
}

// replayInputs are the statements and template data the layer replays
// run on.
type replayInputs struct {
	stmts map[string]stmt
	// data holds one template context per rendered page.
	data map[string]*server.Result
	// home is a rendered home page, the body the response-write replay
	// sends.
	home []byte
}

// captureInputs drives one visit of each page through the reference's
// handlers and keeps the statements they run and the data they render.
// It writes to the reference database (a cart, an order, an item), so
// it runs after the precheck.
func captureInputs(ref *reference) (*replayInputs, error) {
	conn := ref.db.Connect()
	defer conn.Close()
	cp := &capture{inner: conn, stmts: map[string]stmt{}}
	in := &replayInputs{data: map[string]*server.Result{}}
	visits := []string{
		"/home?c_id=17",
		"/product_detail?i_id=4242",
		"/shopping_cart?c_id=17&i_id=99&qty=1",
		"/shopping_cart?c_id=17&i_id=99&qty=2&sc_id={sc}",
		"/buy_request?c_id=17&sc_id={sc}&uname=" + tpcw.Uname(17),
		"/buy_confirm?c_id=17&sc_id={sc}",
		"/order_display?uname=" + tpcw.Uname(17),
		"/new_products?subject=ARTS",
		"/best_sellers?subject=COMPUTERS",
		"/execute_search?field=title&terms=GOLDEN",
		"/admin_response?i_id=4242&cost=12.99",
	}
	sc := "0"
	for _, target := range visits {
		// The second cart visit adds to the cart the first one created,
		// so the handler updates the line instead of inserting it.
		target = strings.ReplaceAll(target, "{sc}", sc)
		res, body, err := ref.call(cp, target)
		if err != nil {
			return nil, fmt.Errorf("capture %s: %w", target, err)
		}
		page := strings.TrimPrefix(pageOf(target), "/")
		if _, seen := in.data[page]; !seen {
			in.data[page] = res
		}
		switch page {
		case "home":
			in.home = body
		case "shopping_cart":
			sc = strconv.Itoa(bench.IntAfter(body, "sc_id="))
		}
	}
	for _, s := range stmtNames {
		if _, ok := cp.stmts[s.name]; !ok {
			return nil, fmt.Errorf("capture: no %s statement seen", s.name)
		}
	}
	in.stmts = cp.stmts
	return in, nil
}

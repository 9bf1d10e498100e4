package sqldb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// This file is the planning layer of the statement pipeline. The
// layering is:
//
//	parser.go / ast.go   — SQL text -> logical statement tree
//	plan.go  (this file) — logical tree -> prepared plan: tables and
//	                       columns resolved, WHERE compiled (compile.go),
//	                       one access path per driving table plus a join
//	                       strategy per joined table, chosen by cost
//	                       from table/index statistics
//	operators.go         — selectPlan -> rows, through composable
//	                       operators (scan, index lookup/range/order,
//	                       filter, joins, aggregate, sort, limit)
//	exec.go              — insertPlan / writePlan -> committed versions
//
// Plans are built once at prepare time and cached (keyed by the index
// epoch, see stmtcache.go), then shared read-only by every execution.
// An execution binds its arguments, takes its views or locks, and runs
// the plan. Placeholder values are not known at plan time, so
// selectivity estimates use index statistics and the operators resolve
// bound values at execution.

// prepared is a statement resolved against the schema and ready to
// run: a *selectPlan, *explainPlan, *insertPlan, or *writePlan.
type prepared interface{ isPrepared() }

func (*selectPlan) isPrepared()  {}
func (*explainPlan) isPrepared() {}
func (*insertPlan) isPrepared()  {}
func (*writePlan) isPrepared()   {}

// pathKind enumerates the physical access paths for one table.
type pathKind int

const (
	// pathScan visits every slot of the table.
	pathScan pathKind = iota
	// pathPK resolves one row through the primary-key map.
	pathPK
	// pathIndexEq probes a secondary (hash or ordered) index bucket.
	pathIndexEq
	// pathIndexRange walks an ordered index between two bounds.
	pathIndexRange
	// pathIndexOrder walks an ordered index in ORDER BY order, stopping
	// early once LIMIT+OFFSET filtered rows are in hand.
	pathIndexOrder
)

// rangeBound is one side of an index range: the bound operand and
// whether the comparison excludes equality (">"/"<" vs ">="/"<=").
type rangeBound struct {
	rhs  operand
	excl bool
}

// accessPath is the planner's decision for producing one table's
// candidate rows. Operand values (placeholders) are resolved at
// execution; the operators re-check every predicate against the visible
// row, so a path is a narrowing hint, never a source of truth.
type accessPath struct {
	kind    pathKind
	colName string      // indexed column (all but pathScan)
	eq      operand     // pathPK, pathIndexEq
	lo, hi  *rangeBound // pathIndexRange
	desc    bool        // pathIndexOrder direction
	stop    int         // pathIndexOrder early-stop row count (limit+offset)
	estCost time.Duration
}

// joinPlan pre-resolves one join: which column of the newly joined table
// matches which already-visible column.
type joinPlan struct {
	innerCol  int    // column index in the inner (new) table
	innerName string // column name, for index lookup
	outerRef  colRef
	outerBi   int // resolved outer column position
	outerCi   int
}

func colBelongsTo(b boundTable, ref colRef) bool {
	if ref.Table != "" {
		return ref.Table == b.ref.name()
	}
	return b.tbl.schema.colIndex(ref.Column) >= 0
}

// joinStep is the resolved strategy for one INNER JOIN: the join-column
// plumbing plus whether the inner side is driven through an index
// (index-nested-loop) or a rescan (nested-loop).
type joinStep struct {
	joinPlan
	indexed    bool
	innerTable string // inner binding's display name, for EXPLAIN
}

// selectPlan is the prepared form of one SELECT. Everything about the
// statement's shape is resolved here; an execution only binds
// arguments, takes views (or locks), and runs it.
type selectPlan struct {
	binds []boundTable
	locks []*table // distinct tables in name order: lock-mode acquisition order
	args  argSpec

	outerName string // driving table's display name
	outer     accessPath
	joins     []joinStep
	preds     [][]compiledPred // WHERE conjuncts by the join depth they run at

	cols []string // output column names, shared by every result
	proj []colPos // non-aggregate: the source of each output column
	agg  *aggPlan // aggregate or grouped query; nil otherwise

	sortRows []sortKey // ORDER BY on table columns, applied before projection
	sortOut  []sortKey // ORDER BY on output columns, applied after it

	where        boolExpr // the full WHERE, for EXPLAIN
	groupBy      []colRef
	orderBy      []orderKey
	orderByIndex bool // outer path delivers ORDER BY order; no sort
	limit        int  // -1 when absent
	offset       int
}

// aggPlan is the resolved GROUP BY and aggregate list of a SELECT.
type aggPlan struct {
	group []colPos
	items []aggItem // one per select item, in order
}

// aggItem is one select item of an aggregated query: a plain column
// (kind aggNone, taken from the group's first row) or an aggregate over
// pos (or over rows, for COUNT(*)).
type aggItem struct {
	kind aggKind
	star bool
	pos  colPos
}

// sortKey is one resolved ORDER BY key. For output-column sorts pos.ci
// is the output column index (each result row is a one-binding row).
type sortKey struct {
	pos  colPos
	desc bool
}

// explainPlan is a prepared EXPLAIN: the inner SELECT's plan, rendered
// instead of run.
type explainPlan struct{ sel *selectPlan }

// bindTables resolves the FROM/JOIN clauses onto tables.
func (db *DB) bindTables(s *selectStmt) ([]boundTable, error) {
	refs := []tableRef{s.From}
	for _, j := range s.Joins {
		refs = append(refs, j.Table)
	}
	binds := make([]boundTable, 0, len(refs))
	for _, ref := range refs {
		tbl, err := db.lookupTable(ref.Table)
		if err != nil {
			return nil, err
		}
		for _, b := range binds {
			if b.ref.name() == ref.name() {
				return nil, fmt.Errorf("sqldb: duplicate table alias %q", ref.name())
			}
		}
		binds = append(binds, boundTable{ref: ref, tbl: tbl})
	}
	return binds, nil
}

// planSelect prepares a parsed SELECT: it resolves tables, columns and
// join strategies, compiles the WHERE clause, fixes the projection,
// aggregation and sort positions, and picks a cost-ranked access path
// for the driving table.
func (db *DB) planSelect(s *selectStmt) (*selectPlan, error) {
	binds, err := db.bindTables(s)
	if err != nil {
		return nil, err
	}
	sc := &scope{binds: binds}
	p := &selectPlan{
		binds:     binds,
		locks:     lockOrder(binds),
		outerName: binds[0].ref.name(),
		where:     s.Where,
		groupBy:   s.GroupBy,
		orderBy:   s.OrderBy,
		limit:     s.Limit,
		offset:    s.Offset,
	}
	// Resolve join sides: joins[i] extends binding i+1.
	p.joins = make([]joinStep, len(s.Joins))
	for i, j := range s.Joins {
		inner := binds[i+1]
		visible := binds[:i+1]
		lInner := colBelongsTo(inner, j.LCol)
		rInner := colBelongsTo(inner, j.RCol)
		var jp joinPlan
		switch {
		case lInner && !rInner:
			jp = joinPlan{innerCol: inner.tbl.schema.colIndex(j.LCol.Column), innerName: j.LCol.Column, outerRef: j.RCol}
		case rInner && !lInner:
			jp = joinPlan{innerCol: inner.tbl.schema.colIndex(j.RCol.Column), innerName: j.RCol.Column, outerRef: j.LCol}
		default:
			return nil, fmt.Errorf("sqldb: join ON must relate %q to an earlier table", inner.ref.name())
		}
		bi, ci, err := resolveCol(visible, jp.outerRef)
		if err != nil {
			return nil, fmt.Errorf("sqldb: join outer column: %w", err)
		}
		jp.outerBi, jp.outerCi = bi, ci
		p.joins[i] = joinStep{
			joinPlan:   jp,
			indexed:    inner.tbl.hasIndex(jp.innerName),
			innerTable: inner.ref.name(),
		}
	}
	// Compile the WHERE clause, split into conjuncts applied at the
	// shallowest join depth possible (predicate pushdown).
	if p.preds, err = sc.compileWhere(s.Where); err != nil {
		return nil, err
	}
	if err := p.planOutput(s, sc); err != nil {
		return nil, err
	}
	p.args = sc.args
	p.outer = db.chooseAccessPath(s, binds)
	p.orderByIndex = p.outer.kind == pathIndexOrder
	return p, nil
}

// planOutput resolves the select list into output columns and their
// sources (projection positions, or the GROUP BY and aggregate list),
// then the ORDER BY keys. Plain queries may order by any table column,
// projected or not (ORDER BY i_pub_date DESC with only i_title
// selected), so those keys sort the combined rows before projection.
// Aggregated queries, and keys that name no table column (an alias),
// sort the output columns instead.
func (p *selectPlan) planOutput(s *selectStmt, sc *scope) error {
	aggregated := len(s.GroupBy) > 0 || planHasAgg(s)
	var items []aggItem
	for _, it := range s.Items {
		switch {
		case it.Star:
			if aggregated {
				return fmt.Errorf("sqldb: SELECT * cannot be combined with aggregates")
			}
			for bi, b := range sc.binds {
				if it.Table != "" && b.ref.name() != it.Table {
					continue
				}
				for ci, c := range b.tbl.schema.Columns {
					p.cols = append(p.cols, c.Name)
					p.proj = append(p.proj, colPos{bi, ci})
				}
			}
		case it.Agg != aggNone:
			item := aggItem{kind: it.Agg, star: it.AggStar}
			if !it.AggStar {
				pos, _, err := sc.resolve(it.AggCol)
				if err != nil {
					return err
				}
				item.pos = pos
			}
			items = append(items, item)
			p.cols = append(p.cols, aggOutputName(it))
		default:
			pos, _, err := sc.resolve(it.Col)
			if err != nil {
				return err
			}
			items = append(items, aggItem{pos: pos})
			p.proj = append(p.proj, pos)
			if it.Alias != "" {
				p.cols = append(p.cols, it.Alias)
			} else {
				p.cols = append(p.cols, it.Col.Column)
			}
		}
	}
	// Results share the column list; clip it so an append by a caller
	// copies instead of writing into the plan.
	p.cols = slices.Clip(p.cols)
	if aggregated {
		p.agg = &aggPlan{items: items}
		p.proj = nil
		for _, g := range s.GroupBy {
			pos, _, err := sc.resolve(g)
			if err != nil {
				return err
			}
			p.agg.group = append(p.agg.group, pos)
		}
	}
	if len(s.OrderBy) == 0 {
		return nil
	}
	if !aggregated {
		keys := make([]sortKey, 0, len(s.OrderBy))
		for _, k := range s.OrderBy {
			pos, _, err := sc.resolve(k.Ref)
			if err != nil {
				break // alias; sort after projection
			}
			keys = append(keys, sortKey{pos: pos, desc: k.Desc})
		}
		if len(keys) == len(s.OrderBy) {
			p.sortRows = keys
			return nil
		}
	}
	for _, k := range s.OrderBy {
		idx := slices.Index(p.cols, k.Ref.Column)
		if idx < 0 {
			return fmt.Errorf("sqldb: ORDER BY column %q is not in the result; project it", k.Ref.Column)
		}
		p.sortOut = append(p.sortOut, sortKey{pos: colPos{0, idx}, desc: k.Desc})
	}
	return nil
}

func aggOutputName(it selectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	var fn string
	switch it.Agg {
	case aggCount:
		fn = "count"
	case aggSum:
		fn = "sum"
	case aggAvg:
		fn = "avg"
	case aggMin:
		fn = "min"
	case aggMax:
		fn = "max"
	}
	if it.AggStar {
		return fn
	}
	return fn + "_" + it.AggCol.Column
}

// lockOrder lists the distinct tables among the bindings in name order:
// a canonical acquisition order prevents deadlock between concurrent
// multi-table statements.
func lockOrder(binds []boundTable) []*table {
	var ts []*table
	for _, b := range binds {
		if !slices.Contains(ts, b.tbl) {
			ts = append(ts, b.tbl)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].schema.Table < ts[j].schema.Table })
	return ts
}

// rlock read-locks the statement's tables in lock order.
func (p *selectPlan) rlock() {
	for _, t := range p.locks {
		t.lock.RLock()
	}
}

// runlock releases rlock's locks in reverse order.
func (p *selectPlan) runlock() {
	for i := len(p.locks) - 1; i >= 0; i-- {
		p.locks[i].lock.RUnlock()
	}
}

// insertPlan is the prepared form of an INSERT: the target table and
// the position of each listed column.
type insertPlan struct {
	tbl  *table
	cols []int
	vals []operand // literals or placeholders, one per column
	args argSpec
}

func (db *DB) planInsert(s *insertStmt) (*insertPlan, error) {
	tbl, err := db.lookupTable(s.Table)
	if err != nil {
		return nil, err
	}
	p := &insertPlan{tbl: tbl, cols: make([]int, len(s.Cols)), vals: s.Values}
	for i, col := range s.Cols {
		if p.cols[i] = tbl.schema.colIndex(col); p.cols[i] < 0 {
			return nil, fmt.Errorf("sqldb: table %q has no column %q", s.Table, col)
		}
		if op := s.Values[i]; op.IsPlacehold {
			p.args.n = max(p.args.n, op.Placeholder+1)
		}
	}
	return p, nil
}

// writePlan is the prepared form of an UPDATE or DELETE: the target
// table, the cached access path, the compiled WHERE, and for UPDATE the
// resolved SET list.
type writePlan struct {
	tbl   *table
	binds []boundTable // tbl, as the one table the WHERE resolves against
	path  accessPath
	preds []compiledPred
	set   []setCol // UPDATE only
	del   bool     // DELETE
	args  argSpec
}

// setCol is one resolved SET assignment.
type setCol struct {
	ci   int
	name string
	val  operandFn
}

// planWrite prepares an UPDATE (cols/vals are its SET list) or a DELETE.
// DML read phases use the same access paths and compiled predicates as
// SELECT, so an index changes how a DML statement finds its rows, never
// which rows it finds.
func (db *DB) planWrite(table string, where boolExpr, cols []string, vals []operand, del bool) (*writePlan, error) {
	tbl, err := db.lookupTable(table)
	if err != nil {
		return nil, err
	}
	binds := []boundTable{{ref: tableRef{Table: table}, tbl: tbl}}
	sc := &scope{binds: binds}
	p := &writePlan{tbl: tbl, binds: binds, del: del}
	for i, col := range cols {
		ci := tbl.schema.colIndex(col)
		if ci < 0 {
			return nil, fmt.Errorf("sqldb: table %q has no column %q", table, col)
		}
		fn, _, err := sc.compileOperand(vals[i])
		if err != nil {
			return nil, err
		}
		p.set = append(p.set, setCol{ci: ci, name: col, val: fn})
	}
	preds, err := sc.compileWhere(where)
	if err != nil {
		return nil, err
	}
	p.preds = preds[0]
	p.args = sc.args
	p.path = db.choosePredPath(where, binds)
	return p, nil
}

// sargable predicates: AND-connected "col OP row-independent-value"
// conjuncts usable by an index on the driving table.
type sarg struct {
	col colRef
	op  string
	rhs operand
}

// collectSargs walks AND-connected conjuncts for comparisons between a
// column of binding bi and a literal or placeholder.
func collectSargs(e boolExpr, binds []boundTable, bi int, out []sarg) []sarg {
	switch t := e.(type) {
	case andExpr:
		out = collectSargs(t.L, binds, bi, out)
		return collectSargs(t.R, binds, bi, out)
	case cmpExpr:
		if !t.Rhs.IsLit && !t.Rhs.IsPlacehold {
			return out
		}
		gotBi, _, err := resolveCol(binds, t.Col)
		if err != nil || gotBi != bi {
			return out
		}
		switch t.Op {
		case "=", "<", "<=", ">", ">=":
			return append(out, sarg{col: t.Col, op: t.Op, rhs: t.Rhs})
		}
	}
	return out
}

// planRows is the row count the planner prices a table at. A plan is
// cached and outlives the statistics it was chosen under, so an empty
// table is priced as holding one row: otherwise a scan of a table that
// is empty right now (a new shopping cart) costs nothing, beats every
// index probe, and stays cached while the table grows.
func planRows(st tableStats) float64 { return float64(max(st.rows, 1)) }

// choosePredPath costs every WHERE-driven access path for the driving
// table against the full scan and returns the cheapest. Candidates are
// priced with the same CostModel terms execution charges: scans pay
// PerRowScanned per slot, index paths pay PerIndexProbe per entry
// visited — so the planner's preference is exactly the latency the
// statement would feel. Shared by SELECT and DML planning.
func (db *DB) choosePredPath(where boolExpr, binds []boundTable) accessPath {
	b := binds[0]
	st := b.tbl.stats()
	rows := planRows(st)
	perScan := float64(db.cost.PerRowScanned)
	perProbe := float64(db.cost.PerIndexProbe)

	best := accessPath{kind: pathScan, estCost: time.Duration(rows * perScan)}
	consider := func(p accessPath) {
		// At-most-as-expensive with scan seeded first: on a cost tie (for
		// example under ZeroCostModel) the index path wins because it is
		// considered only when no more expensive than the incumbent.
		if p.estCost <= best.estCost {
			best = p
		}
	}

	var sargs []sarg
	if where != nil {
		sargs = collectSargs(where, binds, 0, nil)
	}

	// Equality candidates: primary key, then secondary indexes.
	pkName := ""
	if b.tbl.pkCol >= 0 {
		pkName = b.tbl.schema.Columns[b.tbl.pkCol].Name
	}
	for _, sg := range sargs {
		if sg.op != "=" {
			continue
		}
		col := sg.col.Column
		if col == pkName {
			consider(accessPath{
				kind: pathPK, colName: col, eq: sg.rhs,
				estCost: time.Duration(2 * perProbe),
			})
			continue
		}
		if b.tbl.hasIndex(col) {
			est := rows
			if d := st.distinct[col]; d > 0 {
				est = rows / float64(d)
			}
			consider(accessPath{
				kind: pathIndexEq, colName: col, eq: sg.rhs,
				estCost: time.Duration((1 + est) * perProbe),
			})
		}
	}

	// Range candidates: lo/hi bounds on one ordered-indexed column.
	type rangePair struct{ lo, hi *rangeBound }
	ranges := map[string]*rangePair{}
	var rangeCols []string
	for _, sg := range sargs {
		if sg.op == "=" {
			continue
		}
		col := sg.col.Column
		if !b.tbl.hasOrdered(col) {
			continue
		}
		rp := ranges[col]
		if rp == nil {
			rp = &rangePair{}
			ranges[col] = rp
			rangeCols = append(rangeCols, col)
		}
		bound := &rangeBound{rhs: sg.rhs, excl: sg.op == ">" || sg.op == "<"}
		if sg.op == ">" || sg.op == ">=" {
			if rp.lo == nil {
				rp.lo = bound
			}
		} else {
			if rp.hi == nil {
				rp.hi = bound
			}
		}
	}
	for _, col := range rangeCols {
		rp := ranges[col]
		sel := 1.0 / 3
		if rp.lo != nil && rp.hi != nil {
			sel = 1.0 / 4
		}
		est := rows * sel
		consider(accessPath{
			kind: pathIndexRange, colName: col, lo: rp.lo, hi: rp.hi,
			estCost: time.Duration((1 + est) * perProbe),
		})
	}
	return best
}

// chooseAccessPath picks the driving table's access path for a SELECT:
// the cheapest WHERE-driven path, challenged by the index-order path
// when the query shape admits one.
func (db *DB) chooseAccessPath(s *selectStmt, binds []boundTable) accessPath {
	b := binds[0]
	best := db.choosePredPath(s.Where, binds)

	// Index-order candidate: a single-key ORDER BY on an ordered-indexed
	// column of a join-free, aggregate-free SELECT with a LIMIT — the
	// operator walks the index in order and stops once LIMIT+OFFSET
	// filtered rows are in hand.
	if len(s.Joins) == 0 && !planHasAgg(s) && len(s.GroupBy) == 0 &&
		len(s.OrderBy) == 1 && s.Limit >= 0 {
		key := s.OrderBy[0]
		if kbi, _, err := resolveCol(binds, key.Ref); err == nil && kbi == 0 &&
			b.tbl.hasOrdered(key.Ref.Column) {
			rows := planRows(b.tbl.stats())
			visited := float64(s.Limit + s.Offset)
			if s.Where != nil {
				// A residual filter delays the early stop; assume it
				// passes half the rows, capped by the table itself.
				visited = min(rows, 2*visited+float64(s.Limit+s.Offset))
				visited = max(visited, rows/2)
			}
			cand := accessPath{
				kind: pathIndexOrder, colName: key.Ref.Column,
				desc: key.Desc, stop: s.Limit + s.Offset,
				estCost: time.Duration((1 + visited) * float64(db.cost.PerIndexProbe)),
			}
			// The index-order path also saves the sort the WHERE-driven
			// paths would pay; credit it when comparing. At-most-as-expensive,
			// like consider: on a cost tie (ZeroCostModel) the index wins.
			sortSaved := time.Duration(rows * float64(db.cost.PerSortRow))
			if cand.estCost <= best.estCost+sortSaved {
				best = cand
			}
		}
	}
	return best
}

func planHasAgg(s *selectStmt) bool {
	for _, it := range s.Items {
		if it.Agg != aggNone {
			return true
		}
	}
	return false
}

// ---- EXPLAIN rendering ----

// resultSet renders the plan as an EXPLAIN result: one operator per
// row, access path first, then joins, filter, aggregate, sort, limit.
func (p *selectPlan) resultSet() *ResultSet {
	lines := p.lines()
	rs := &ResultSet{Columns: []string{"plan"}, Rows: make([][]Value, len(lines))}
	for i, l := range lines {
		rs.Rows[i] = []Value{l}
	}
	return rs
}

func (p *selectPlan) lines() []string {
	var out []string
	qual := func(col string) string { return p.outerName + "." + col }
	switch p.outer.kind {
	case pathScan:
		out = append(out, fmt.Sprintf("Scan(%s)", p.outerName))
	case pathPK:
		out = append(out, fmt.Sprintf("PKLookup(%s = %s)", qual(p.outer.colName), renderOperand(p.outer.eq)))
	case pathIndexEq:
		out = append(out, fmt.Sprintf("IndexLookup(%s = %s)", qual(p.outer.colName), renderOperand(p.outer.eq)))
	case pathIndexRange:
		var bounds []string
		if lo := p.outer.lo; lo != nil {
			op := ">="
			if lo.excl {
				op = ">"
			}
			bounds = append(bounds, fmt.Sprintf("%s %s %s", qual(p.outer.colName), op, renderOperand(lo.rhs)))
		}
		if hi := p.outer.hi; hi != nil {
			op := "<="
			if hi.excl {
				op = "<"
			}
			bounds = append(bounds, fmt.Sprintf("%s %s %s", qual(p.outer.colName), op, renderOperand(hi.rhs)))
		}
		out = append(out, fmt.Sprintf("IndexRange(%s)", strings.Join(bounds, " and ")))
	case pathIndexOrder:
		dir := "asc"
		if p.outer.desc {
			dir = "desc"
		}
		out = append(out, fmt.Sprintf("IndexOrder(%s %s)", qual(p.outer.colName), dir))
	}
	for _, j := range p.joins {
		op := "NestedJoin"
		if j.indexed {
			op = "IndexJoin"
		}
		out = append(out, fmt.Sprintf("%s(%s.%s = %s)", op, j.innerTable, j.innerName, j.outerRef))
	}
	if p.where != nil {
		out = append(out, fmt.Sprintf("Filter(%s)", renderBool(p.where)))
	}
	if p.agg != nil {
		var keys []string
		for _, g := range p.groupBy {
			keys = append(keys, g.String())
		}
		if len(keys) > 0 {
			out = append(out, fmt.Sprintf("Aggregate(group by %s)", strings.Join(keys, ", ")))
		} else {
			out = append(out, "Aggregate()")
		}
	}
	if len(p.orderBy) > 0 && !p.orderByIndex {
		var keys []string
		for _, k := range p.orderBy {
			dir := "asc"
			if k.Desc {
				dir = "desc"
			}
			keys = append(keys, k.Ref.String()+" "+dir)
		}
		out = append(out, fmt.Sprintf("Sort(%s)", strings.Join(keys, ", ")))
	}
	if p.limit >= 0 || p.offset > 0 {
		if p.offset > 0 {
			out = append(out, fmt.Sprintf("Limit(%d offset %d)", p.limit, p.offset))
		} else {
			out = append(out, fmt.Sprintf("Limit(%d)", p.limit))
		}
	}
	return out
}

// renderOperand prints an expression leaf for EXPLAIN output.
func renderOperand(op operand) string {
	switch {
	case op.IsPlacehold:
		return "?"
	case op.IsLit:
		if _, isStr := op.Lit.(string); isStr {
			return "'" + op.Lit.(string) + "'"
		}
		return FormatValue(op.Lit)
	default:
		return op.Col.String()
	}
}

// renderBool prints a predicate tree for EXPLAIN output.
func renderBool(e boolExpr) string {
	switch t := e.(type) {
	case andExpr:
		return renderBool(t.L) + " and " + renderBool(t.R)
	case orExpr:
		return "(" + renderBool(t.L) + " or " + renderBool(t.R) + ")"
	case notExpr:
		return "not (" + renderBool(t.E) + ")"
	case cmpExpr:
		return fmt.Sprintf("%s %s %s", t.Col, t.Op, renderOperand(t.Rhs))
	case likeExpr:
		op := "like"
		if t.Neg {
			op = "not like"
		}
		return fmt.Sprintf("%s %s %s", t.Col, op, renderOperand(t.Rhs))
	case inExpr:
		var vals []string
		for _, o := range t.Set {
			vals = append(vals, renderOperand(o))
		}
		op := "in"
		if t.Neg {
			op = "not in"
		}
		return fmt.Sprintf("%s %s (%s)", t.Col, op, strings.Join(vals, ", "))
	case nullExpr:
		if t.Neg {
			return fmt.Sprintf("%s is not null", t.Col)
		}
		return fmt.Sprintf("%s is null", t.Col)
	default:
		return fmt.Sprintf("%T", e)
	}
}

package sqldb

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the execution layer of the SELECT pipeline (see plan.go
// for the layering): composable operators that turn a selectPlan into
// rows. Access paths (scan, PK/index lookup, index range, index order)
// produce candidate slot ids; enumeration joins them (nested-loop or
// index-nested-loop per the plan); filter, aggregate, sort, and limit
// shape the result. Index results are stale-tolerant hints throughout —
// every operator re-checks its predicate against the visible row.

// execSelect runs a SELECT. In lock mode it holds the read locks of its
// tables for the whole cost-padded statement (the paper's contention
// behavior); under MVCC it reads a fixed snapshot lock-free and charges
// cost with nothing held, so readers never block writers or each other.
func (db *DB) execSelect(s *selectStmt, ec *execCtx) (*ResultSet, error) {
	bindings, err := db.resolveBindings(s)
	if err != nil {
		return nil, err
	}
	if db.mvcc.Load() {
		ts := db.pinLatest()
		db.snapshotReads.Inc()
		defer db.unpinSnapshot(ts)
		bindViews(bindings, ts)
		defer db.chargeCost(ec) // no locks held; the sleep delays only this statement
		return db.runSelect(s, bindings, ec)
	}
	unlock := db.lockTables(bindings, false)
	defer unlock()
	defer db.chargeCost(ec) // sleep the cost before releasing the locks
	bindViews(bindings, latestTS)
	return db.runSelect(s, bindings, ec)
}

// execSelectAt runs a SELECT lock-free against the snapshot at ts — the
// engine behind Snapshot.Query, valid in either concurrency mode.
func (db *DB) execSelectAt(s *selectStmt, ec *execCtx, ts int64) (*ResultSet, error) {
	bindings, err := db.resolveBindings(s)
	if err != nil {
		return nil, err
	}
	db.pinSnapshot(ts)
	defer db.unpinSnapshot(ts)
	bindViews(bindings, ts)
	defer db.chargeCost(ec)
	return db.runSelect(s, bindings, ec)
}

// runSelect is the mode-independent SELECT core: fetch the physical
// plan (cached on the statement, or planned on the fly for direct
// parses), enumerate, aggregate, order, project. Every row access goes
// through the bindings' views.
func (db *DB) runSelect(s *selectStmt, bindings []binding, ec *execCtx) (*ResultSet, error) {
	plan := s.plan
	if plan == nil {
		var err error
		if plan, err = db.planSelect(s); err != nil {
			return nil, err
		}
	}

	// Compile the WHERE clause once, split into conjuncts applied at the
	// shallowest join depth possible (predicate pushdown).
	preds, err := compileWhere(s.Where, bindings)
	if err != nil {
		return nil, err
	}

	matched, preSorted, err := db.enumerate(s, plan, bindings, preds, ec)
	if err != nil {
		return nil, err
	}

	hasAgg := false
	for _, it := range s.Items {
		if it.Agg != aggNone {
			hasAgg = true
			break
		}
	}

	var rs *ResultSet
	if hasAgg || len(s.GroupBy) > 0 {
		rs, err = db.aggregate(s, bindings, matched, ec)
		if err != nil {
			return nil, err
		}
		// Aggregated queries order by output columns, including
		// aggregate aliases (ORDER BY qty DESC).
		if len(s.OrderBy) > 0 {
			if err := orderResult(rs, s.OrderBy, ec); err != nil {
				return nil, err
			}
		}
	} else {
		// Plain queries may order by any table column, projected or not
		// (ORDER BY i_pub_date DESC with only i_title selected), so sort
		// the combined rows before projection — unless the index-order
		// access path already delivered them sorted. Aliases that are not
		// table columns fall back to a post-projection sort.
		sortedPre := preSorted
		if len(s.OrderBy) > 0 && !sortedPre {
			ok, err := orderCombined(matched, bindings, s.OrderBy, ec)
			if err != nil {
				return nil, err
			}
			sortedPre = ok
		}
		rs, err = db.project(s, bindings, matched, ec)
		if err != nil {
			return nil, err
		}
		if len(s.OrderBy) > 0 && !sortedPre {
			if err := orderResult(rs, s.OrderBy, ec); err != nil {
				return nil, err
			}
		}
	}
	applyLimit(rs, s.Limit, s.Offset)
	return rs, nil
}

// pathValue resolves an access path's bound operand row-independently.
// ok=false (missing argument, un-normalizable value) degrades the path
// to a scan rather than erroring — the compiled predicates will surface
// any real argument error.
func pathValue(op operand, ec *execCtx) (Value, bool) {
	v, err := operandValue(op, nil, nil, ec)
	if err != nil {
		return nil, false
	}
	nv, err := normalize(v)
	if err != nil {
		return nil, false
	}
	return nv, true
}

// scanRows is the full-scan access path: every live slot of the view.
func (db *DB) scanRows(b binding, ec *execCtx) []int {
	n := b.view.size()
	ids := make([]int, 0, n)
	for id := 0; id < n; id++ {
		if b.view.row(id) != nil {
			ids = append(ids, id)
		}
	}
	ec.cost.scanned += n
	db.planScans.Inc()
	db.planRows.Add(int64(n))
	return ids
}

// indexedRows resolves an equality through the primary key or a
// secondary index and charges probe costs. Results are hints; callers
// re-check the predicate against the visible row.
func (db *DB) indexedRows(v tableView, col string, val Value, ec *execCtx) []int {
	t := v.tbl
	if t.pkCol >= 0 && t.schema.Columns[t.pkCol].Name == col {
		ec.cost.probes++
		db.planRows.Add(1)
		key, ok := val.(int64)
		if !ok {
			if f, fok := val.(float64); fok {
				key, ok = int64(f), true
			}
		}
		if !ok {
			return nil
		}
		if id, found := v.lookupPK(key); found {
			return []int{id}
		}
		return nil
	}
	ids, visited, ok := v.lookupIndex(col, val)
	if !ok {
		return nil
	}
	ec.cost.probes += visited + 1
	db.planRows.Add(int64(visited))
	return ids
}

// rangeRows is the index-range access path: entries of the ordered
// index inside the bounds, filtered by the entry-vs-visible-row check
// (a row whose key was updated has entries under both values; only the
// one matching the visible row may produce it, which also keeps the
// result duplicate-free).
func (db *DB) rangeRows(p accessPath, b binding, ec *execCtx) ([]int, bool) {
	oidx, ok := b.view.lookupOrdered(p.colName)
	if !ok {
		return nil, false
	}
	var lo, hi Value
	hasLo, hasHi := p.lo != nil, p.hi != nil
	var loExcl, hiExcl bool
	if hasLo {
		if lo, ok = pathValue(p.lo.rhs, ec); !ok {
			return nil, false
		}
		loExcl = p.lo.excl
	}
	if hasHi {
		if hi, ok = pathValue(p.hi.rhs, ec); !ok {
			return nil, false
		}
		hiExcl = p.hi.excl
	}
	es, visited := oidx.state.Load().rangeEntries(lo, loExcl, hasLo, hi, hiExcl, hasHi)
	ec.cost.probes += visited + 1
	db.planRows.Add(int64(visited))
	ci := oidx.col
	ids := make([]int, 0, len(es))
	for _, e := range es {
		row := b.view.row(e.id)
		if row == nil || !valuesEqual(row[ci], e.val) {
			continue
		}
		ids = append(ids, e.id)
	}
	return ids, true
}

// fetchOuter executes the plan's access path for the driving table and
// returns candidate slot ids (hints — callers re-check predicates).
// Index paths degrade to the scan when the index or a bound value is
// unavailable at execution time.
func (db *DB) fetchOuter(p accessPath, b binding, ec *execCtx) []int {
	switch p.kind {
	case pathPK, pathIndexEq:
		if val, ok := pathValue(p.eq, ec); ok {
			db.planIndex.Inc()
			return db.indexedRows(b.view, p.colName, val, ec)
		}
	case pathIndexRange:
		if ids, ok := db.rangeRows(p, b, ec); ok {
			db.planIndex.Inc()
			return ids
		}
	}
	return db.scanRows(b, ec)
}

// candidateRows yields the row IDs of table b to visit for a DML read
// phase, choosing the access path the same way the SELECT planner does
// (indexes change DML predicate evaluation too) and charging honest
// scan/probe costs.
func (db *DB) candidateRows(where boolExpr, bindings []binding, b binding, ec *execCtx) []int {
	return db.fetchOuter(db.choosePredPath(where, bindings), b, ec)
}

// enumerate runs the plan's access paths and joins with predicate
// pushdown, returning the fully matched combined rows. preSorted
// reports that the index-order access path already delivered the rows
// in ORDER BY order.
func (db *DB) enumerate(s *selectStmt, plan *selectPlan, bindings []binding, preds [][]compiledPred, ec *execCtx) (out [][][]Value, preSorted bool, err error) {
	rows := make([][]Value, len(bindings))

	// applyPreds evaluates the depth-i conjuncts on the partial row.
	applyPreds := func(i int) (bool, error) {
		for _, p := range preds[i] {
			ok, err := p.eval(rows, ec)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}

	// Index-order access path: walk the ordered index in ORDER BY order,
	// stopping once LIMIT+OFFSET filtered rows are in hand. Join-free by
	// construction (the planner only picks it for single-table SELECTs).
	if plan.outer.kind == pathIndexOrder && len(bindings) == 1 {
		if oidx, ok := bindings[0].view.lookupOrdered(plan.outer.colName); ok {
			db.planIndex.Inc()
			es, _ := oidx.state.Load().allEntries()
			ci := oidx.col
			iterated := 0
			for i := range es {
				e := es[i]
				if plan.outer.desc {
					e = es[len(es)-1-i]
				}
				iterated++
				ec.cost.probes++
				row := bindings[0].view.row(e.id)
				// Entry-vs-visible re-check: an updated row has entries at
				// both its old and new position; emitting it anywhere but
				// its current value's position would break the order (and
				// duplicate the row).
				if row == nil || !valuesEqual(row[ci], e.val) {
					continue
				}
				rows[0] = row
				ok, err := applyPreds(0)
				if err != nil {
					return nil, false, err
				}
				if !ok {
					continue
				}
				out = append(out, [][]Value{row})
				ec.cost.matched++
				if plan.outer.stop >= 0 && len(out) >= plan.outer.stop {
					break
				}
			}
			db.planRows.Add(int64(iterated))
			return out, true, nil
		}
		// Ordered index gone (replaced by a hash index between planning
		// and execution): fall through to the generic path on a scan.
	}

	outerPath := plan.outer
	if outerPath.kind == pathIndexOrder {
		outerPath = accessPath{kind: pathScan}
	}

	// Join steps count their access path once per statement execution.
	counted := make([]bool, len(plan.joins))

	var rec func(i int) error
	rec = func(i int) error {
		if i >= len(bindings) {
			cp := make([][]Value, len(rows))
			copy(cp, rows)
			out = append(out, cp)
			ec.cost.matched++
			return nil
		}
		jp := plan.joins[i-1]
		outerVal := rows[jp.outerBi][jp.outerCi]
		inner := bindings[i]
		var ids []int
		if jp.indexed {
			if !counted[i-1] {
				counted[i-1] = true
				db.planIndex.Inc()
			}
			ids = db.indexedRows(inner.view, jp.innerName, outerVal, ec)
		} else {
			if !counted[i-1] {
				counted[i-1] = true
				db.planScans.Inc()
			}
			n := inner.view.size()
			ec.cost.scanned += n
			db.planRows.Add(int64(n))
			for id := 0; id < n; id++ {
				if row := inner.view.row(id); row != nil && valuesEqual(row[jp.innerCol], outerVal) {
					ids = append(ids, id)
				}
			}
		}
		for _, id := range ids {
			row := inner.view.row(id)
			// Re-check the join equality: index buckets are stale-tolerant
			// hints, so an id may point at a row whose visible version no
			// longer (or, at this snapshot, does not yet) match.
			if row == nil || !valuesEqual(row[jp.innerCol], outerVal) {
				continue
			}
			rows[i] = row
			ok, err := applyPreds(i)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		rows[i] = nil
		return nil
	}

	for _, id := range db.fetchOuter(outerPath, bindings[0], ec) {
		rows[0] = bindings[0].view.row(id)
		if rows[0] == nil {
			continue
		}
		ok, err := applyPreds(0)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			continue
		}
		if err := rec(1); err != nil {
			return nil, false, err
		}
	}
	return out, false, nil
}

// orderCombined sorts joined rows by table columns. It reports false
// (without sorting) when a key does not resolve to a table column, in
// which case the caller sorts the projected output instead.
func orderCombined(matched [][][]Value, bindings []binding, keys []orderKey, ec *execCtx) (bool, error) {
	type sortCol struct {
		bi, ci int
		desc   bool
	}
	scols := make([]sortCol, len(keys))
	for i, k := range keys {
		bi, ci, err := resolveCol(bindings, k.Ref)
		if err != nil {
			return false, nil // alias; sort after projection
		}
		scols[i] = sortCol{bi: bi, ci: ci, desc: k.Desc}
	}
	ec.cost.sorted += len(matched)
	var sortErr error
	sort.SliceStable(matched, func(i, j int) bool {
		for _, sc := range scols {
			c, err := compare(matched[i][sc.bi][sc.ci], matched[j][sc.bi][sc.ci])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if sc.desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return false, sortErr
	}
	return true, nil
}

// outputColumns computes the result column names for the projection.
func outputColumns(s *selectStmt, bindings []binding) ([]string, error) {
	var cols []string
	for _, it := range s.Items {
		switch {
		case it.Star:
			for _, b := range bindings {
				if it.Table != "" && b.ref.name() != it.Table {
					continue
				}
				for _, c := range b.tbl.schema.Columns {
					cols = append(cols, c.Name)
				}
			}
		case it.Agg != aggNone:
			cols = append(cols, aggOutputName(it))
		default:
			if it.Alias != "" {
				cols = append(cols, it.Alias)
			} else {
				cols = append(cols, it.Col.Column)
			}
		}
	}
	return cols, nil
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

// project materializes a non-aggregate result.
func (db *DB) project(s *selectStmt, bindings []binding, matched [][][]Value, ec *execCtx) (*ResultSet, error) {
	cols, err := outputColumns(s, bindings)
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Columns: cols, Rows: make([][]Value, 0, len(matched))}
	for _, rows := range matched {
		out := make([]Value, 0, len(cols))
		for _, it := range s.Items {
			switch {
			case it.Star:
				for bi, b := range bindings {
					if it.Table != "" && b.ref.name() != it.Table {
						continue
					}
					out = append(out, rows[bi]...)
				}
			default:
				bi, ci, err := resolveCol(bindings, it.Col)
				if err != nil {
					return nil, err
				}
				out = append(out, rows[bi][ci])
			}
		}
		rs.Rows = append(rs.Rows, out)
	}
	return rs, nil
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count    int64
	sum      float64
	sumInts  bool
	min, max Value
	seen     bool
}

func (a *aggState) add(v Value) {
	if v == nil {
		return
	}
	a.count++
	if n, ok := asNumber(v); ok {
		a.sum += n
		if !a.seen {
			a.sumInts = true
		}
		if _, isInt := v.(int64); !isInt {
			a.sumInts = false
		}
	}
	if !a.seen {
		a.min, a.max, a.seen = v, v, true
		return
	}
	if c, err := compare(v, a.min); err == nil && c < 0 {
		a.min = v
	}
	if c, err := compare(v, a.max); err == nil && c > 0 {
		a.max = v
	}
}

// aggregate materializes a grouped/aggregated result.
func (db *DB) aggregate(s *selectStmt, bindings []binding, matched [][][]Value, ec *execCtx) (*ResultSet, error) {
	for _, it := range s.Items {
		if it.Star {
			return nil, fmt.Errorf("sqldb: SELECT * cannot be combined with aggregates")
		}
	}
	// Resolve group-by columns.
	type colPos struct{ bi, ci int }
	groupPos := make([]colPos, len(s.GroupBy))
	for i, g := range s.GroupBy {
		bi, ci, err := resolveCol(bindings, g)
		if err != nil {
			return nil, err
		}
		groupPos[i] = colPos{bi, ci}
	}
	type group struct {
		firstRows [][]Value
		states    []aggState
	}
	groups := make(map[string]*group)
	var orderKeys []string // insertion order for determinism
	ec.cost.sorted += len(matched)
	for _, rows := range matched {
		var kb strings.Builder
		for _, gp := range groupPos {
			kb.WriteString(FormatValue(rows[gp.bi][gp.ci]))
			kb.WriteByte('\x00')
		}
		key := kb.String()
		g, ok := groups[key]
		if !ok {
			g = &group{firstRows: rows, states: make([]aggState, len(s.Items))}
			groups[key] = g
			orderKeys = append(orderKeys, key)
		}
		for i, it := range s.Items {
			if it.Agg == aggNone {
				continue
			}
			if it.AggStar {
				g.states[i].count++
				continue
			}
			bi, ci, err := resolveCol(bindings, it.AggCol)
			if err != nil {
				return nil, err
			}
			g.states[i].add(rows[bi][ci])
		}
	}
	cols, err := outputColumns(s, bindings)
	if err != nil {
		return nil, err
	}
	// SQL semantics: an ungrouped aggregate over an empty set still
	// yields one row (COUNT 0, SUM/AVG/MIN/MAX NULL).
	if len(groups) == 0 && len(s.GroupBy) == 0 {
		groups[""] = &group{firstRows: make([][]Value, len(bindings)), states: make([]aggState, len(s.Items))}
		orderKeys = append(orderKeys, "")
	}
	rs := &ResultSet{Columns: cols, Rows: make([][]Value, 0, len(groups))}
	for _, key := range orderKeys {
		g := groups[key]
		out := make([]Value, 0, len(cols))
		for i, it := range s.Items {
			if it.Agg == aggNone {
				bi, ci, err := resolveCol(bindings, it.Col)
				if err != nil {
					return nil, err
				}
				if g.firstRows[bi] == nil {
					out = append(out, nil) // synthetic empty-set group
					continue
				}
				out = append(out, g.firstRows[bi][ci])
				continue
			}
			st := g.states[i]
			switch it.Agg {
			case aggCount:
				out = append(out, st.count)
			case aggSum:
				if st.sumInts {
					out = append(out, int64(st.sum))
				} else {
					out = append(out, st.sum)
				}
			case aggAvg:
				if st.count == 0 {
					out = append(out, nil)
				} else {
					out = append(out, st.sum/float64(st.count))
				}
			case aggMin:
				out = append(out, st.min)
			case aggMax:
				out = append(out, st.max)
			}
		}
		rs.Rows = append(rs.Rows, out)
	}
	return rs, nil
}

// orderResult sorts the result set by output columns (names or aliases).
func orderResult(rs *ResultSet, keys []orderKey, ec *execCtx) error {
	type sortCol struct {
		idx  int
		desc bool
	}
	scols := make([]sortCol, len(keys))
	for i, k := range keys {
		idx := rs.ColIndex(k.Ref.Column)
		if idx < 0 {
			return fmt.Errorf("sqldb: ORDER BY column %q is not in the result; project it", k.Ref.Column)
		}
		scols[i] = sortCol{idx: idx, desc: k.Desc}
	}
	ec.cost.sorted += len(rs.Rows)
	var sortErr error
	sort.SliceStable(rs.Rows, func(i, j int) bool {
		for _, sc := range scols {
			c, err := compare(rs.Rows[i][sc.idx], rs.Rows[j][sc.idx])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if sc.desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return sortErr
}

func applyLimit(rs *ResultSet, limit, offset int) {
	if offset > 0 {
		if offset >= len(rs.Rows) {
			rs.Rows = rs.Rows[:0]
		} else {
			rs.Rows = rs.Rows[offset:]
		}
	}
	if limit >= 0 && limit < len(rs.Rows) {
		rs.Rows = rs.Rows[:limit]
	}
}

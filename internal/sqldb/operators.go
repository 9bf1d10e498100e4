package sqldb

import (
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
//
// Matched combined rows travel as one flat slice: a row of an n-table
// statement is n consecutive entries (one table row each), so
// enumeration appends without a per-row allocation.

// execSelect runs a prepared SELECT whose arguments are bound. In lock
// mode it holds the read locks of its tables for the whole cost-padded
// statement (the paper's contention behavior); under MVCC it reads a
// fixed snapshot lock-free and charges cost with nothing held, so
// readers never block writers or each other.
func (db *DB) execSelect(p *selectPlan, ec *execCtx) *ResultSet {
	if db.mvcc.Load() {
		ts := db.pinLatest()
		db.snapshotReads.Inc()
		defer db.unpinSnapshot(ts)
		ec.bindViews(p.binds, ts)
		defer db.chargeCost(ec) // no locks held; the sleep delays only this statement
		return db.runSelect(p, ec)
	}
	p.rlock()
	defer p.runlock()
	defer db.chargeCost(ec) // sleep the cost before releasing the locks
	ec.bindViews(p.binds, latestTS)
	return db.runSelect(p, ec)
}

// execSelectAt runs a prepared SELECT lock-free against the snapshot at
// ts — the engine behind Snapshot.Query, valid in either concurrency
// mode.
func (db *DB) execSelectAt(p *selectPlan, ec *execCtx, ts int64) *ResultSet {
	db.pinSnapshot(ts)
	defer db.unpinSnapshot(ts)
	ec.bindViews(p.binds, ts)
	defer db.chargeCost(ec)
	return db.runSelect(p, ec)
}

// runSelect is the mode-independent SELECT core: enumerate, aggregate,
// order, limit, project. Every row access goes through the views bound
// on ec.
func (db *DB) runSelect(p *selectPlan, ec *execCtx) *ResultSet {
	matched, preSorted := db.enumerate(p, ec)
	stride := len(p.binds)
	if p.agg != nil {
		rs := p.aggregate(matched, stride, ec)
		// Aggregated queries order by output columns, including
		// aggregate aliases (ORDER BY qty DESC).
		if len(p.sortOut) > 0 {
			ec.cost.sorted += len(rs.Rows)
			sortRows(rs.Rows, 1, p.sortOut)
		}
		lo, hi := limitWindow(len(rs.Rows), p.limit, p.offset)
		rs.Rows = rs.Rows[lo:hi]
		return rs
	}
	n := len(matched) / stride
	if len(p.sortRows) > 0 && !preSorted {
		ec.cost.sorted += n
		sortRows(matched, stride, p.sortRows)
	}
	if len(p.sortOut) > 0 {
		// Aliases that are not table columns sort the projected output.
		rs := p.project(matched, stride)
		ec.cost.sorted += len(rs.Rows)
		sortRows(rs.Rows, 1, p.sortOut)
		lo, hi := limitWindow(len(rs.Rows), p.limit, p.offset)
		rs.Rows = rs.Rows[lo:hi]
		return rs
	}
	// The order is final: project only the rows LIMIT/OFFSET keep.
	lo, hi := limitWindow(n, p.limit, p.offset)
	return p.project(matched[lo*stride:hi*stride], stride)
}

// limitWindow returns the [lo, hi) row range OFFSET and LIMIT keep out
// of n rows (limit < 0 means no limit).
func limitWindow(n, limit, offset int) (lo, hi int) {
	lo, hi = min(max(offset, 0), n), n
	if limit >= 0 && lo+limit < hi {
		hi = lo + limit
	}
	return lo, hi
}

// scanRows is the full-scan access path: every live slot of the view.
func (db *DB) scanRows(v tableView, ec *execCtx) []int {
	n := v.size()
	ids := make([]int, 0, n)
	for id := 0; id < n; id++ {
		if v.row(id) != nil {
			ids = append(ids, id)
		}
	}
	ec.cost.scanned += n
	db.planScans.Inc()
	db.planRows.Add(int64(n))
	return ids
}

// indexedRows resolves an equality through the primary key or a
// secondary index and charges probe costs. A primary-key hit is
// returned in hit, so the probe does not allocate. Results are hints;
// callers re-check the predicate against the visible row.
func (db *DB) indexedRows(v tableView, col string, val Value, ec *execCtx, hit *[1]int) []int {
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
			hit[0] = id
			return hit[:]
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
func (db *DB) rangeRows(p accessPath, v tableView, ec *execCtx) ([]int, bool) {
	oidx, ok := v.lookupOrdered(p.colName)
	if !ok {
		return nil, false
	}
	var lo, hi Value
	hasLo, hasHi := p.lo != nil, p.hi != nil
	var loExcl, hiExcl bool
	if hasLo {
		lo, loExcl = argValue(p.lo.rhs, ec.args), p.lo.excl
	}
	if hasHi {
		hi, hiExcl = argValue(p.hi.rhs, ec.args), p.hi.excl
	}
	es, visited := oidx.state.Load().rangeEntries(lo, loExcl, hasLo, hi, hiExcl, hasHi)
	ec.cost.probes += visited + 1
	db.planRows.Add(int64(visited))
	ci := oidx.col
	ids := make([]int, 0, len(es))
	for _, e := range es {
		row := v.row(e.id)
		if row == nil || !valuesEqual(row[ci], e.val) {
			continue
		}
		ids = append(ids, e.id)
	}
	return ids, true
}

// fetchOuter executes an access path for the driving table and returns
// candidate slot ids (hints — callers re-check predicates). A range
// path degrades to the scan when its ordered index is gone at
// execution time (replaced by a hash index after planning).
func (db *DB) fetchOuter(p accessPath, v tableView, ec *execCtx) []int {
	switch p.kind {
	case pathPK, pathIndexEq:
		db.planIndex.Inc()
		return db.indexedRows(v, p.colName, argValue(p.eq, ec.args), ec, &ec.pkHit[0])
	case pathIndexRange:
		if ids, ok := db.rangeRows(p, v, ec); ok {
			db.planIndex.Inc()
			return ids
		}
	}
	return db.scanRows(v, ec)
}

// joinWalk is the state of one nested-loop enumeration.
type joinWalk struct {
	db  *DB
	p   *selectPlan
	ec  *execCtx
	out [][]Value // matched combined rows, flattened
}

// visit binds row at depth i and, if the depth-i conjuncts pass,
// continues the join below it.
func (w *joinWalk) visit(i int, row []Value) {
	ec := w.ec
	ec.rows[i] = row
	if !passes(w.p.preds[i], ec.rows, ec.args) {
		return
	}
	if i+1 < len(ec.rows) {
		w.join(i + 1)
		return
	}
	w.out = append(w.out, ec.rows...)
	ec.cost.matched++
}

// join enumerates binding i's rows matching the join column of the
// rows bound above it. Each join step counts its access path once per
// statement execution.
func (w *joinWalk) join(i int) {
	db, ec := w.db, w.ec
	jp := w.p.joins[i-1]
	outerVal := ec.rows[jp.outerBi][jp.outerCi]
	inner := ec.views[i]
	if jp.indexed {
		if !ec.counted[i] {
			ec.counted[i] = true
			db.planIndex.Inc()
		}
		for _, id := range db.indexedRows(inner, jp.innerName, outerVal, ec, &ec.pkHit[i]) {
			row := inner.row(id)
			// Re-check the join equality: index buckets are stale-tolerant
			// hints, so an id may point at a row whose visible version no
			// longer (or, at this snapshot, does not yet) match.
			if row != nil && valuesEqual(row[jp.innerCol], outerVal) {
				w.visit(i, row)
			}
		}
	} else {
		if !ec.counted[i] {
			ec.counted[i] = true
			db.planScans.Inc()
		}
		n := inner.size()
		ec.cost.scanned += n
		db.planRows.Add(int64(n))
		for id := 0; id < n; id++ {
			if row := inner.row(id); row != nil && valuesEqual(row[jp.innerCol], outerVal) {
				w.visit(i, row)
			}
		}
	}
	ec.rows[i] = nil
}

// enumerate runs the plan's access paths and joins with predicate
// pushdown, returning the fully matched combined rows, flattened.
// preSorted reports that the index-order access path already delivered
// the rows in ORDER BY order.
func (db *DB) enumerate(p *selectPlan, ec *execCtx) (out [][]Value, preSorted bool) {
	v := ec.views[0]
	// Index-order access path: walk the ordered index in ORDER BY order,
	// stopping once LIMIT+OFFSET filtered rows are in hand. Join-free by
	// construction (the planner only picks it for single-table SELECTs).
	if p.outer.kind == pathIndexOrder && len(p.binds) == 1 {
		if oidx, ok := v.lookupOrdered(p.outer.colName); ok {
			db.planIndex.Inc()
			es, _ := oidx.state.Load().allEntries()
			ci := oidx.col
			iterated := 0
			for i := range es {
				e := es[i]
				if p.outer.desc {
					e = es[len(es)-1-i]
				}
				iterated++
				ec.cost.probes++
				row := v.row(e.id)
				// Entry-vs-visible re-check: an updated row has entries at
				// both its old and new position; emitting it anywhere but
				// its current value's position would break the order (and
				// duplicate the row).
				if row == nil || !valuesEqual(row[ci], e.val) {
					continue
				}
				ec.rows[0] = row
				if !passes(p.preds[0], ec.rows, ec.args) {
					continue
				}
				out = append(out, row)
				ec.cost.matched++
				if p.outer.stop >= 0 && len(out) >= p.outer.stop {
					break
				}
			}
			db.planRows.Add(int64(iterated))
			return out, true
		}
		// Ordered index gone (replaced by a hash index between planning
		// and execution): fall through to the generic path on a scan.
	}

	outerPath := p.outer
	if outerPath.kind == pathIndexOrder {
		outerPath = accessPath{kind: pathScan}
	}
	w := joinWalk{db: db, p: p, ec: ec}
	for _, id := range db.fetchOuter(outerPath, v, ec) {
		if row := v.row(id); row != nil {
			w.visit(0, row)
		}
	}
	return w.out, false
}

// rowSorter stably sorts flattened combined rows of stride entries by
// resolved keys.
type rowSorter struct {
	rows   [][]Value
	stride int
	keys   []sortKey
}

func (s *rowSorter) Len() int { return len(s.rows) / s.stride }

func (s *rowSorter) Less(i, j int) bool {
	a, b := s.rows[i*s.stride:], s.rows[j*s.stride:]
	for _, k := range s.keys {
		// Keys compare values of one column (or one output column), so
		// the types agree and compare cannot fail.
		c, _ := compare(a[k.pos.bi][k.pos.ci], b[k.pos.bi][k.pos.ci])
		if c != 0 {
			return (c < 0) != k.desc
		}
	}
	return false
}

func (s *rowSorter) Swap(i, j int) {
	a, b := s.rows[i*s.stride:(i+1)*s.stride], s.rows[j*s.stride:(j+1)*s.stride]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// sortRows stably sorts flattened combined rows by keys.
func sortRows(rows [][]Value, stride int, keys []sortKey) {
	sort.Stable(&rowSorter{rows: rows, stride: stride, keys: keys})
}

// project materializes the result of a non-aggregate query from
// flattened combined rows. The cells of all result rows share one
// backing array.
func (p *selectPlan) project(matched [][]Value, stride int) *ResultSet {
	n, width := len(matched)/stride, len(p.proj)
	cells := make([]Value, n*width)
	rs := &ResultSet{Columns: p.cols, Rows: make([][]Value, n)}
	for r := range n {
		combined := matched[r*stride:]
		out := cells[r*width : (r+1)*width : (r+1)*width]
		for j, pos := range p.proj {
			out[j] = combined[pos.bi][pos.ci]
		}
		rs.Rows[r] = out
	}
	return rs
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

// aggregate materializes a grouped/aggregated result from flattened
// combined rows.
func (p *selectPlan) aggregate(matched [][]Value, stride int, ec *execCtx) *ResultSet {
	a := p.agg
	type group struct {
		firstRows [][]Value
		states    []aggState
	}
	groups := make(map[string]*group)
	var orderKeys []string // insertion order for determinism
	n := len(matched) / stride
	ec.cost.sorted += n
	for r := range n {
		rows := matched[r*stride : (r+1)*stride]
		var kb strings.Builder
		for _, gp := range a.group {
			kb.WriteString(FormatValue(rows[gp.bi][gp.ci]))
			kb.WriteByte('\x00')
		}
		key := kb.String()
		g, ok := groups[key]
		if !ok {
			g = &group{firstRows: rows, states: make([]aggState, len(a.items))}
			groups[key] = g
			orderKeys = append(orderKeys, key)
		}
		for i, it := range a.items {
			switch {
			case it.kind == aggNone:
			case it.star:
				g.states[i].count++
			default:
				g.states[i].add(rows[it.pos.bi][it.pos.ci])
			}
		}
	}
	// SQL semantics: an ungrouped aggregate over an empty set still
	// yields one row (COUNT 0, SUM/AVG/MIN/MAX NULL).
	if len(groups) == 0 && len(a.group) == 0 {
		groups[""] = &group{firstRows: make([][]Value, stride), states: make([]aggState, len(a.items))}
		orderKeys = append(orderKeys, "")
	}
	rs := &ResultSet{Columns: p.cols, Rows: make([][]Value, 0, len(groups))}
	for _, key := range orderKeys {
		g := groups[key]
		out := make([]Value, 0, len(a.items))
		for i, it := range a.items {
			st := g.states[i]
			switch it.kind {
			case aggNone:
				if row := g.firstRows[it.pos.bi]; row != nil {
					out = append(out, row[it.pos.ci])
				} else {
					out = append(out, nil) // synthetic empty-set group
				}
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
	return rs
}

package sqldb

import (
	"fmt"
	"sort"
)

// binding is one table instance participating in a SELECT (FROM or JOIN),
// addressed by its alias. view is the snapshot the statement reads the
// table at: the latest state in lock mode (where the table lock
// serializes access), a fixed commit timestamp under MVCC.
type binding struct {
	ref  tableRef
	tbl  *table
	view tableView
}

// bindViews captures a read view of every binding at ts.
func bindViews(bindings []binding, ts int64) {
	for i := range bindings {
		bindings[i].view = bindings[i].tbl.view(ts)
	}
}

// execCtx carries per-statement state.
type execCtx struct {
	args []Value
	cost costCounter
	// sql is the original statement text, kept for the DML apply hook.
	sql string
}

// resolveBindings maps the FROM/JOIN clauses onto tables.
func (db *DB) resolveBindings(s *selectStmt) ([]binding, error) {
	refs := append([]tableRef{s.From}, make([]tableRef, 0, len(s.Joins))...)
	for _, j := range s.Joins {
		refs = append(refs, j.Table)
	}
	bindings := make([]binding, len(refs))
	seen := make(map[string]bool, len(refs))
	for i, ref := range refs {
		tbl, err := db.lookupTable(ref.Table)
		if err != nil {
			return nil, err
		}
		name := ref.name()
		if seen[name] {
			return nil, fmt.Errorf("sqldb: duplicate table alias %q", name)
		}
		seen[name] = true
		bindings[i] = binding{ref: ref, tbl: tbl}
	}
	return bindings, nil
}

// resolveCol locates a column reference among the bindings.
func resolveCol(bindings []binding, ref colRef) (bindIdx, colIdx int, err error) {
	if ref.Table != "" {
		for bi, b := range bindings {
			if b.ref.name() == ref.Table {
				ci := b.tbl.schema.colIndex(ref.Column)
				if ci < 0 {
					return 0, 0, fmt.Errorf("sqldb: table %q has no column %q", ref.Table, ref.Column)
				}
				return bi, ci, nil
			}
		}
		return 0, 0, fmt.Errorf("sqldb: unknown table %q in column reference", ref.Table)
	}
	found := -1
	for bi, b := range bindings {
		if ci := b.tbl.schema.colIndex(ref.Column); ci >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sqldb: ambiguous column %q", ref.Column)
			}
			found = bi
			colIdx = ci
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sqldb: unknown column %q", ref.Column)
	}
	return found, colIdx, nil
}

// operandValue evaluates an operand against the current combined row
// (rows may be nil for row-independent evaluation).
func operandValue(op operand, bindings []binding, rows [][]Value, ec *execCtx) (Value, error) {
	switch {
	case op.IsLit:
		return op.Lit, nil
	case op.IsPlacehold:
		if op.Placeholder >= len(ec.args) {
			return nil, fmt.Errorf("sqldb: missing argument for placeholder %d", op.Placeholder+1)
		}
		return ec.args[op.Placeholder], nil
	default:
		if rows == nil {
			return nil, fmt.Errorf("sqldb: column %s in row-independent position", op.Col)
		}
		bi, ci, err := resolveCol(bindings, op.Col)
		if err != nil {
			return nil, err
		}
		return rows[bi][ci], nil
	}
}

// evalBool evaluates a WHERE tree against the combined row.
func evalBool(e boolExpr, bindings []binding, rows [][]Value, ec *execCtx) (bool, error) {
	switch t := e.(type) {
	case andExpr:
		l, err := evalBool(t.L, bindings, rows, ec)
		if err != nil || !l {
			return false, err
		}
		return evalBool(t.R, bindings, rows, ec)
	case orExpr:
		l, err := evalBool(t.L, bindings, rows, ec)
		if err != nil || l {
			return l, err
		}
		return evalBool(t.R, bindings, rows, ec)
	case notExpr:
		v, err := evalBool(t.E, bindings, rows, ec)
		return !v, err
	case cmpExpr:
		bi, ci, err := resolveCol(bindings, t.Col)
		if err != nil {
			return false, err
		}
		lhs := rows[bi][ci]
		rhs, err := operandValue(t.Rhs, bindings, rows, ec)
		if err != nil {
			return false, err
		}
		if lhs == nil || rhs == nil {
			// SQL three-valued logic degraded to false, except
			// equality-with-null which is still false.
			return false, nil
		}
		c, err := compare(lhs, rhs)
		if err != nil {
			return false, err
		}
		switch t.Op {
		case "=":
			return c == 0, nil
		case "!=":
			return c != 0, nil
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		case ">=":
			return c >= 0, nil
		default:
			return false, fmt.Errorf("sqldb: unknown operator %q", t.Op)
		}
	case likeExpr:
		bi, ci, err := resolveCol(bindings, t.Col)
		if err != nil {
			return false, err
		}
		rhs, err := operandValue(t.Rhs, bindings, rows, ec)
		if err != nil {
			return false, err
		}
		s, ok1 := rows[bi][ci].(string)
		pat, ok2 := rhs.(string)
		if !ok1 || !ok2 {
			return false, nil
		}
		m := likeMatch(s, pat)
		if t.Neg {
			m = !m
		}
		return m, nil
	case inExpr:
		bi, ci, err := resolveCol(bindings, t.Col)
		if err != nil {
			return false, err
		}
		lhs := rows[bi][ci]
		for _, op := range t.Set {
			rhs, err := operandValue(op, bindings, rows, ec)
			if err != nil {
				return false, err
			}
			if valuesEqual(lhs, rhs) {
				return !t.Neg, nil
			}
		}
		return t.Neg, nil
	case nullExpr:
		bi, ci, err := resolveCol(bindings, t.Col)
		if err != nil {
			return false, err
		}
		isNull := rows[bi][ci] == nil
		if t.Neg {
			return !isNull, nil
		}
		return isNull, nil
	default:
		return false, fmt.Errorf("sqldb: unknown boolean expression %T", e)
	}
}

// ---- DML ----
//
// Every DML statement is split into a read phase and a commit. The read
// phase runs against a snapshot view (the statement's write set: which
// slots to touch and the fully-built replacement rows); the commit
// validates and installs versions under db.commitMu — a critical
// section that covers only validation, version install, log append, and
// the timestamp bump, never cost-model sleeps.
//
// In lock mode the statement additionally holds the table's write lock
// around both phases (and charges cost under it), reproducing the
// paper's serialized writer. Under MVCC the table lock is not taken:
// validation is first-writer-wins — if any slot in the write set gained
// a version newer than the statement's snapshot, the statement aborts
// with ErrWriteConflict and Conn.Exec retries it on a fresh snapshot.

// rowWrite is one row of a statement's write set: the slot to replace
// and its fully-built next version.
type rowWrite struct {
	id  int
	row []Value
}

func (db *DB) execInsert(s *insertStmt, ec *execCtx) (ExecResult, error) {
	tbl, err := db.lookupTable(s.Table)
	if err != nil {
		return ExecResult{}, err
	}
	row := make([]Value, len(tbl.schema.Columns))
	for i, col := range s.Cols {
		ci := tbl.schema.colIndex(col)
		if ci < 0 {
			return ExecResult{}, fmt.Errorf("sqldb: table %q has no column %q", s.Table, col)
		}
		v, err := operandValue(s.Values[i], nil, nil, ec)
		if err != nil {
			return ExecResult{}, err
		}
		nv, err := normalize(v)
		if err != nil {
			return ExecResult{}, err
		}
		if !tbl.schema.Columns[ci].Type.accepts(nv) {
			return ExecResult{}, fmt.Errorf("sqldb: column %s.%s (%s) rejects %T",
				s.Table, col, tbl.schema.Columns[ci].Type, nv)
		}
		row[ci] = nv
	}
	if db.mvcc.Load() {
		res, err := db.commitInsert(tbl, row, ec)
		if err != nil {
			return ExecResult{}, err
		}
		db.chargeCost(ec) // outside every lock
		return res, nil
	}
	tbl.lock.Lock()
	defer tbl.lock.Unlock()
	// Lock engine only: sleeping the statement's cost under the table
	// lock IS the paper's baseline contention model. The MVCC paths
	// above charge outside every lock, and locksleep keeps them that way.
	defer db.chargeCost(ec) //lint:allow locksleep(lock-engine charges under the table lock by design)
	return db.commitInsert(tbl, row, ec)
}

// commitInsert validates and installs one insert. Inserts have no read
// set, so there is nothing to conflict on — duplicate-key errors are
// real errors, not retryable conflicts.
func (db *DB) commitInsert(tbl *table, row []Value, ec *execCtx) (ExecResult, error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if err := tbl.checkInsert(row); err != nil {
		return ExecResult{}, err
	}
	ts := db.commitTS.Load() + 1
	tbl.applyInsert(row, ts)
	ec.cost.written++
	res := ExecResult{RowsAffected: 1, CommitTS: ts}
	if tbl.pkCol >= 0 {
		if id, ok := row[tbl.pkCol].(int64); ok {
			res.LastInsertID = id
		}
	}
	db.finishCommit(ec, ts)
	return res, nil
}

func (db *DB) execUpdate(s *updateStmt, ec *execCtx) (ExecResult, error) {
	tbl, err := db.lookupTable(s.Table)
	if err != nil {
		return ExecResult{}, err
	}
	cols := make([]int, len(s.Cols))
	for i, col := range s.Cols {
		ci := tbl.schema.colIndex(col)
		if ci < 0 {
			return ExecResult{}, fmt.Errorf("sqldb: table %q has no column %q", s.Table, col)
		}
		cols[i] = ci
	}
	if db.mvcc.Load() {
		snapTS := db.pinLatest()
		defer db.unpinSnapshot(snapTS)
		b := binding{ref: tableRef{Table: s.Table}, tbl: tbl, view: tbl.view(snapTS)}
		writes, err := db.collectUpdates(s, b, cols, ec)
		if err != nil {
			return ExecResult{}, err
		}
		res, err := db.commitWrites(tbl, snapTS, writes, nil, ec, true)
		if err != nil {
			return ExecResult{}, err
		}
		db.chargeCost(ec) // outside every lock
		return res, nil
	}
	tbl.lock.Lock()
	defer tbl.lock.Unlock()
	// Lock engine only: sleeping the statement's cost under the table
	// lock IS the paper's baseline contention model. The MVCC paths
	// above charge outside every lock, and locksleep keeps them that way.
	defer db.chargeCost(ec) //lint:allow locksleep(lock-engine charges under the table lock by design)
	b := binding{ref: tableRef{Table: s.Table}, tbl: tbl, view: tbl.view(latestTS)}
	writes, err := db.collectUpdates(s, b, cols, ec)
	if err != nil {
		return ExecResult{}, err
	}
	return db.commitWrites(tbl, 0, writes, nil, ec, false)
}

// collectUpdates runs an UPDATE's read phase: find matching rows in the
// view, evaluate the SET expressions against the snapshot row, and
// build the full replacement rows.
func (db *DB) collectUpdates(s *updateStmt, b binding, cols []int, ec *execCtx) ([]rowWrite, error) {
	bindings := []binding{b}
	tbl := b.tbl
	ids := db.candidateRows(s.Where, bindings, b, ec)
	rows := make([][]Value, 1)
	var writes []rowWrite
	for _, id := range ids {
		rows[0] = b.view.row(id)
		if rows[0] == nil {
			continue
		}
		if s.Where != nil {
			ok, err := evalBool(s.Where, bindings, rows, ec)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		newRow := append([]Value(nil), rows[0]...)
		for i, op := range s.Vals {
			v, err := operandValue(op, bindings, rows, ec)
			if err != nil {
				return nil, err
			}
			nv, err := normalize(v)
			if err != nil {
				return nil, err
			}
			if !tbl.schema.Columns[cols[i]].Type.accepts(nv) {
				return nil, fmt.Errorf("sqldb: column %s.%s (%s) rejects %T",
					tbl.schema.Table, s.Cols[i], tbl.schema.Columns[cols[i]].Type, nv)
			}
			newRow[cols[i]] = nv
		}
		writes = append(writes, rowWrite{id: id, row: newRow})
	}
	return writes, nil
}

func (db *DB) execDelete(s *deleteStmt, ec *execCtx) (ExecResult, error) {
	tbl, err := db.lookupTable(s.Table)
	if err != nil {
		return ExecResult{}, err
	}
	if db.mvcc.Load() {
		snapTS := db.pinLatest()
		defer db.unpinSnapshot(snapTS)
		b := binding{ref: tableRef{Table: s.Table}, tbl: tbl, view: tbl.view(snapTS)}
		deletes, err := db.collectDeletes(s, b, ec)
		if err != nil {
			return ExecResult{}, err
		}
		res, err := db.commitWrites(tbl, snapTS, nil, deletes, ec, true)
		if err != nil {
			return ExecResult{}, err
		}
		db.chargeCost(ec) // outside every lock
		return res, nil
	}
	tbl.lock.Lock()
	defer tbl.lock.Unlock()
	// Lock engine only: sleeping the statement's cost under the table
	// lock IS the paper's baseline contention model. The MVCC paths
	// above charge outside every lock, and locksleep keeps them that way.
	defer db.chargeCost(ec) //lint:allow locksleep(lock-engine charges under the table lock by design)
	b := binding{ref: tableRef{Table: s.Table}, tbl: tbl, view: tbl.view(latestTS)}
	deletes, err := db.collectDeletes(s, b, ec)
	if err != nil {
		return ExecResult{}, err
	}
	return db.commitWrites(tbl, 0, nil, deletes, ec, false)
}

// collectDeletes runs a DELETE's read phase: the slot ids of matching
// visible rows.
func (db *DB) collectDeletes(s *deleteStmt, b binding, ec *execCtx) ([]int, error) {
	bindings := []binding{b}
	ids := db.candidateRows(s.Where, bindings, b, ec)
	rows := make([][]Value, 1)
	var deletes []int
	for _, id := range ids {
		rows[0] = b.view.row(id)
		if rows[0] == nil {
			continue
		}
		if s.Where != nil {
			ok, err := evalBool(s.Where, bindings, rows, ec)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		deletes = append(deletes, id)
	}
	return deletes, nil
}

// commitWrites validates and installs an UPDATE/DELETE write set as one
// atomic commit. With validate set (MVCC), first-writer-wins: any slot
// in the write set with a version newer than snapTS aborts the whole
// statement before anything is installed, so a statement is never
// half-applied. Primary-key checks also run before any install for the
// same all-or-nothing guarantee. A statement that matched zero rows
// still commits (timestamp, log entry, hook) — replicas replay the
// no-op, keeping the log contiguous.
func (db *DB) commitWrites(tbl *table, snapTS int64, updates []rowWrite, deletes []int, ec *execCtx, validate bool) (ExecResult, error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if validate {
		for _, w := range updates {
			if tbl.latestBegin(w.id) > snapTS {
				db.conflicts.Inc()
				return ExecResult{}, ErrWriteConflict
			}
		}
		for _, id := range deletes {
			if tbl.latestBegin(id) > snapTS {
				db.conflicts.Inc()
				return ExecResult{}, ErrWriteConflict
			}
		}
	}
	for _, w := range updates {
		if err := tbl.checkUpdate(w.id, w.row); err != nil {
			return ExecResult{}, err
		}
	}
	ts := db.commitTS.Load() + 1
	horizon := db.pruneHorizon()
	for _, w := range updates {
		tbl.applyUpdate(w.id, w.row, ts, horizon)
		ec.cost.written++
	}
	for _, id := range deletes {
		tbl.applyDelete(id, ts, horizon)
		ec.cost.written++
	}
	db.finishCommit(ec, ts)
	return ExecResult{RowsAffected: int64(len(updates) + len(deletes)), CommitTS: ts}, nil
}

// lockTables read- or write-locks every distinct table among the
// bindings in name order (a canonical order prevents deadlock between
// concurrent multi-table statements) and returns the unlock function.
func (db *DB) lockTables(bindings []binding, write bool) func() {
	uniq := make(map[string]*table, len(bindings))
	for _, b := range bindings {
		uniq[b.tbl.schema.Table] = b.tbl
	}
	names := make([]string, 0, len(uniq))
	for n := range uniq {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if write {
			uniq[n].lock.Lock()
		} else {
			uniq[n].lock.RLock()
		}
	}
	return func() {
		for i := len(names) - 1; i >= 0; i-- {
			if write {
				uniq[names[i]].lock.Unlock()
			} else {
				uniq[names[i]].lock.RUnlock()
			}
		}
	}
}

package sqldb

import "fmt"

// execCtx carries the state of one statement execution: the bound
// arguments, the work done (for the cost model), and scratch indexed by
// binding — the read view, the row bound at that join depth, a one-slot
// buffer for primary-key hits, and whether the join step has counted
// its access path. Statements over at most four tables use the inline
// arrays, so a cache hit allocates no per-binding scratch.
type execCtx struct {
	args []Value
	cost costCounter
	// sql is the original statement text, kept for the DML apply hook.
	sql string

	views   []tableView
	rows    [][]Value
	pkHit   [][1]int
	counted []bool

	viewBuf  [4]tableView
	rowBuf   [4][]Value
	pkBuf    [4][1]int
	countBuf [4]bool
}

// newExecCtx normalizes one execution's arguments and binds them
// against the statement's argument contract.
func newExecCtx(args []any, spec *argSpec) (*execCtx, error) {
	vals := make([]Value, len(args))
	for i, a := range args {
		v, err := normalize(a)
		if err != nil {
			return nil, fmt.Errorf("sqldb: argument %d: %w", i+1, err)
		}
		vals[i] = v
	}
	if err := spec.bind(vals); err != nil {
		return nil, err
	}
	return &execCtx{args: vals}, nil
}

// bindViews captures a read view of every bound table at ts and sizes
// the per-binding scratch.
func (ec *execCtx) bindViews(binds []boundTable, ts int64) {
	n := len(binds)
	if n <= len(ec.viewBuf) {
		ec.views, ec.rows, ec.pkHit, ec.counted = ec.viewBuf[:n], ec.rowBuf[:n], ec.pkBuf[:n], ec.countBuf[:n]
	} else {
		ec.views, ec.rows, ec.pkHit, ec.counted = make([]tableView, n), make([][]Value, n), make([][1]int, n), make([]bool, n)
	}
	clear(ec.counted)
	for i, b := range binds {
		ec.views[i] = b.tbl.view(ts)
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

func (db *DB) execInsert(p *insertPlan, ec *execCtx) (ExecResult, error) {
	tbl := p.tbl
	row := make([]Value, len(tbl.schema.Columns))
	for i, ci := range p.cols {
		nv, err := normalize(argValue(p.vals[i], ec.args))
		if err != nil {
			return ExecResult{}, err
		}
		if col := tbl.schema.Columns[ci]; !col.Type.accepts(nv) {
			return ExecResult{}, fmt.Errorf("sqldb: column %s.%s (%s) rejects %T",
				tbl.schema.Table, col.Name, col.Type, nv)
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

// execWrite runs a prepared UPDATE or DELETE.
func (db *DB) execWrite(p *writePlan, ec *execCtx) (ExecResult, error) {
	tbl := p.tbl
	if db.mvcc.Load() {
		snapTS := db.pinLatest()
		defer db.unpinSnapshot(snapTS)
		ec.bindViews(p.binds, snapTS)
		updates, deletes, err := db.collectWrites(p, ec)
		if err != nil {
			return ExecResult{}, err
		}
		res, err := db.commitWrites(tbl, snapTS, updates, deletes, ec, true)
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
	ec.bindViews(p.binds, latestTS)
	updates, deletes, err := db.collectWrites(p, ec)
	if err != nil {
		return ExecResult{}, err
	}
	return db.commitWrites(tbl, 0, updates, deletes, ec, false)
}

// collectWrites runs an UPDATE's or DELETE's read phase on the bound
// view:
// find the matching rows through the cached access path and the
// compiled WHERE, then (UPDATE) evaluate the SET list against each
// snapshot row and build the full replacement rows, or (DELETE) collect
// the slot ids.
func (db *DB) collectWrites(p *writePlan, ec *execCtx) (updates []rowWrite, deletes []int, err error) {
	tbl, v, rows := p.tbl, ec.views[0], ec.rows
	for _, id := range db.fetchOuter(p.path, v, ec) {
		if rows[0] = v.row(id); rows[0] == nil || !passes(p.preds, rows, ec.args) {
			continue
		}
		if p.del {
			deletes = append(deletes, id)
			continue
		}
		newRow := append([]Value(nil), rows[0]...)
		for _, sc := range p.set {
			nv, err := normalize(sc.val(rows, ec.args))
			if err != nil {
				return nil, nil, err
			}
			if typ := tbl.schema.Columns[sc.ci].Type; !typ.accepts(nv) {
				return nil, nil, fmt.Errorf("sqldb: column %s.%s (%s) rejects %T",
					tbl.schema.Table, sc.name, typ, nv)
			}
			newRow[sc.ci] = nv
		}
		updates = append(updates, rowWrite{id: id, row: newRow})
	}
	return updates, deletes, nil
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

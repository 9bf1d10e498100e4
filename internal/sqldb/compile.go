package sqldb

import "fmt"

// This file is the prepare-time half of statement execution. It
// resolves every column reference to a (binding, column) position,
// type-checks comparison operands against column types, and compiles
// WHERE trees into closures. It also splits top-level AND conjuncts by
// the deepest join binding they reference, so the executor can apply
// each predicate as early as possible during nested-loop enumeration
// (predicate pushdown). Without this, a query like the TPC-W
// new-products listing would join the author table for all ten
// thousand item rows before discarding 96% of them on the subject
// filter.
//
// Everything here runs once per prepared statement; a statement-cache
// hit reuses the result, read-only, from any number of goroutines.

// boundTable is one table instance a statement reads (FROM, JOIN, or
// the DML target), addressed by its alias.
type boundTable struct {
	ref tableRef
	tbl *table
}

// scope is the prepare-time context of one statement: the tables its
// column references resolve against and the argument contract its
// placeholders accumulate.
type scope struct {
	binds []boundTable
	args  argSpec
}

// argSpec is a statement's argument contract, checked once per
// execution before anything runs: how many arguments it needs, and
// which placeholders are compared with a column and must hold a value
// of a comparable type.
type argSpec struct {
	n      int // highest placeholder ordinal + 1
	checks []argCheck
}

// argCheck ties a placeholder to the column it is compared with.
type argCheck struct {
	idx int
	col Column
}

// bind verifies the arguments of one execution against the contract.
// Arguments are already normalized.
func (a *argSpec) bind(args []Value) error {
	if len(args) < a.n {
		return fmt.Errorf("sqldb: missing argument for placeholder %d", len(args)+1)
	}
	for _, c := range a.checks {
		if err := checkComparable(c.col, args[c.idx]); err != nil {
			return err
		}
	}
	return nil
}

// checkComparable rejects a value that compare cannot order against
// the column's values. Every access path gets the same verdict, because
// it is reached before any of them runs: literals at prepare time,
// placeholders when the arguments are bound.
func checkComparable(col Column, v Value) error {
	if col.Type.comparable(v) {
		return nil
	}
	return fmt.Errorf("sqldb: cannot compare %s (%s) with %T", col.Name, col.Type, v)
}

// resolveCol locates a column reference among the bound tables.
func resolveCol(binds []boundTable, ref colRef) (bindIdx, colIdx int, err error) {
	if ref.Table != "" {
		for bi, b := range binds {
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
	for bi, b := range binds {
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

// colPos is a resolved column: binding index and column index.
type colPos struct{ bi, ci int }

// resolve resolves a column reference in this scope.
func (sc *scope) resolve(ref colRef) (colPos, Column, error) {
	bi, ci, err := resolveCol(sc.binds, ref)
	if err != nil {
		return colPos{}, Column{}, err
	}
	return colPos{bi, ci}, sc.binds[bi].tbl.schema.Columns[ci], nil
}

// compiledPred is a WHERE conjunct ready for per-row evaluation. The
// operands were type-checked at prepare time (and placeholders at
// bind), so evaluation cannot fail.
type compiledPred struct {
	eval  func(rows [][]Value, args []Value) bool
	depth int // deepest binding index referenced
}

// operandFn evaluates an operand against the current combined row and
// the bound arguments.
type operandFn func(rows [][]Value, args []Value) Value

// splitAnd flattens top-level AND nodes into conjuncts.
func splitAnd(e boolExpr, out []boolExpr) []boolExpr {
	if a, ok := e.(andExpr); ok {
		out = splitAnd(a.L, out)
		return splitAnd(a.R, out)
	}
	return append(out, e)
}

// compileWhere compiles a WHERE tree into per-depth predicate lists:
// preds[i] holds the conjuncts that can run once bindings 0..i are bound.
func (sc *scope) compileWhere(e boolExpr) ([][]compiledPred, error) {
	preds := make([][]compiledPred, len(sc.binds))
	if e == nil {
		return preds, nil
	}
	for _, conj := range splitAnd(e, nil) {
		cp, err := sc.compileBool(conj)
		if err != nil {
			return nil, err
		}
		preds[cp.depth] = append(preds[cp.depth], cp)
	}
	return preds, nil
}

// passes reports whether the combined row satisfies every predicate.
func passes(preds []compiledPred, rows [][]Value, args []Value) bool {
	for _, p := range preds {
		if !p.eval(rows, args) {
			return false
		}
	}
	return true
}

// compileBool compiles one boolean node.
func (sc *scope) compileBool(e boolExpr) (compiledPred, error) {
	switch t := e.(type) {
	case andExpr:
		l, err := sc.compileBool(t.L)
		if err != nil {
			return compiledPred{}, err
		}
		r, err := sc.compileBool(t.R)
		if err != nil {
			return compiledPred{}, err
		}
		return compiledPred{
			depth: max(l.depth, r.depth),
			eval: func(rows [][]Value, args []Value) bool {
				return l.eval(rows, args) && r.eval(rows, args)
			},
		}, nil
	case orExpr:
		l, err := sc.compileBool(t.L)
		if err != nil {
			return compiledPred{}, err
		}
		r, err := sc.compileBool(t.R)
		if err != nil {
			return compiledPred{}, err
		}
		return compiledPred{
			depth: max(l.depth, r.depth),
			eval: func(rows [][]Value, args []Value) bool {
				return l.eval(rows, args) || r.eval(rows, args)
			},
		}, nil
	case notExpr:
		inner, err := sc.compileBool(t.E)
		if err != nil {
			return compiledPred{}, err
		}
		return compiledPred{
			depth: inner.depth,
			eval: func(rows [][]Value, args []Value) bool {
				return !inner.eval(rows, args)
			},
		}, nil
	case cmpExpr:
		lp, col, err := sc.resolve(t.Col)
		if err != nil {
			return compiledPred{}, err
		}
		rhs, rhsDepth, err := sc.compileCompared(col, t.Rhs)
		if err != nil {
			return compiledPred{}, err
		}
		test, err := cmpTest(t.Op)
		if err != nil {
			return compiledPred{}, err
		}
		bi, ci := lp.bi, lp.ci
		return compiledPred{
			depth: max(bi, rhsDepth),
			eval: func(rows [][]Value, args []Value) bool {
				lhs, rv := rows[bi][ci], rhs(rows, args)
				if lhs == nil || rv == nil {
					// SQL three-valued logic degraded to false.
					return false
				}
				c, err := compare(lhs, rv)
				return err == nil && test(c)
			},
		}, nil
	case likeExpr:
		lp, _, err := sc.resolve(t.Col)
		if err != nil {
			return compiledPred{}, err
		}
		rhs, rhsDepth, err := sc.compileOperand(t.Rhs)
		if err != nil {
			return compiledPred{}, err
		}
		bi, ci, neg := lp.bi, lp.ci, t.Neg
		return compiledPred{
			depth: max(bi, rhsDepth),
			eval: func(rows [][]Value, args []Value) bool {
				s, ok1 := rows[bi][ci].(string)
				pat, ok2 := rhs(rows, args).(string)
				if !ok1 || !ok2 {
					return false
				}
				return likeMatch(s, pat) != neg
			},
		}, nil
	case inExpr:
		lp, col, err := sc.resolve(t.Col)
		if err != nil {
			return compiledPred{}, err
		}
		depth := lp.bi
		evals := make([]operandFn, len(t.Set))
		for i, op := range t.Set {
			fn, d, err := sc.compileCompared(col, op)
			if err != nil {
				return compiledPred{}, err
			}
			evals[i] = fn
			depth = max(depth, d)
		}
		bi, ci, neg := lp.bi, lp.ci, t.Neg
		return compiledPred{
			depth: depth,
			eval: func(rows [][]Value, args []Value) bool {
				lhs := rows[bi][ci]
				for _, fn := range evals {
					if valuesEqual(lhs, fn(rows, args)) {
						return !neg
					}
				}
				return neg
			},
		}, nil
	case nullExpr:
		lp, _, err := sc.resolve(t.Col)
		if err != nil {
			return compiledPred{}, err
		}
		bi, ci, neg := lp.bi, lp.ci, t.Neg
		return compiledPred{
			depth: bi,
			eval: func(rows [][]Value, _ []Value) bool {
				return (rows[bi][ci] == nil) != neg
			},
		}, nil
	default:
		return compiledPred{}, fmt.Errorf("sqldb: unknown boolean expression %T", e)
	}
}

// cmpTest maps a comparison operator onto compare's result.
func cmpTest(op string) (func(c int) bool, error) {
	switch op {
	case "=":
		return func(c int) bool { return c == 0 }, nil
	case "!=":
		return func(c int) bool { return c != 0 }, nil
	case "<":
		return func(c int) bool { return c < 0 }, nil
	case "<=":
		return func(c int) bool { return c <= 0 }, nil
	case ">":
		return func(c int) bool { return c > 0 }, nil
	case ">=":
		return func(c int) bool { return c >= 0 }, nil
	default:
		return nil, fmt.Errorf("sqldb: unknown operator %q", op)
	}
}

// compileCompared compiles an operand compared with column col and
// type-checks it: a literal now, a placeholder when arguments are bound,
// a column reference by its declared type.
func (sc *scope) compileCompared(col Column, op operand) (operandFn, int, error) {
	switch {
	case op.IsLit:
		if err := checkComparable(col, op.Lit); err != nil {
			return nil, 0, err
		}
	case op.IsPlacehold:
		sc.args.checks = append(sc.args.checks, argCheck{idx: op.Placeholder, col: col})
	default:
		_, other, err := sc.resolve(op.Col)
		if err != nil {
			return nil, 0, err
		}
		if col.Type != other.Type && !(col.Type.numeric() && other.Type.numeric()) {
			return nil, 0, fmt.Errorf("sqldb: cannot compare %s (%s) with %s (%s)",
				col.Name, col.Type, other.Name, other.Type)
		}
	}
	return sc.compileOperand(op)
}

// compileOperand compiles a literal, placeholder, or column reference to
// a value closure plus the deepest binding it references.
func (sc *scope) compileOperand(op operand) (operandFn, int, error) {
	switch {
	case op.IsLit:
		v := op.Lit
		return func([][]Value, []Value) Value { return v }, 0, nil
	case op.IsPlacehold:
		idx := op.Placeholder
		sc.args.n = max(sc.args.n, idx+1)
		return func(_ [][]Value, args []Value) Value { return args[idx] }, 0, nil
	default:
		p, _, err := sc.resolve(op.Col)
		if err != nil {
			return nil, 0, err
		}
		bi, ci := p.bi, p.ci
		return func(rows [][]Value, _ []Value) Value { return rows[bi][ci] }, bi, nil
	}
}

// argValue is the value of a row-independent operand (a literal or a
// placeholder) under bound arguments.
func argValue(op operand, args []Value) Value {
	if op.IsPlacehold {
		return args[op.Placeholder]
	}
	return op.Lit
}

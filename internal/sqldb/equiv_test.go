package sqldb

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// An answer must not depend on how it was computed: the same statement
// returns the same rows, or the same error, on a scan or an index path
// and on the lock or the MVCC engine.

// equivDB builds newTestDB's rows plus one row of NULLs (its price is
// stored as an INT value in the FLOAT column). With indexes off the
// book table has no primary key and no index, so every predicate runs
// on a scan. With indexes on it has the primary key, hash indexes on
// b_a_id and b_stock, and ordered indexes on b_price, b_pub and b_title.
func equivDB(tb testing.TB, mvcc, indexes bool) *DB {
	tb.Helper()
	db := Open(Options{Cost: ZeroCostModel(), MVCC: mvcc})
	db.MustCreateTable(Schema{
		Table:      "author",
		Columns:    []Column{{Name: "a_id", Type: Int}, {Name: "a_name", Type: String}},
		PrimaryKey: "a_id",
	})
	book := Schema{
		Table: "book",
		Columns: []Column{
			{Name: "b_id", Type: Int},
			{Name: "b_title", Type: String},
			{Name: "b_a_id", Type: Int},
			{Name: "b_price", Type: Float},
			{Name: "b_stock", Type: Int},
			{Name: "b_pub", Type: Time},
		},
	}
	if indexes {
		book.PrimaryKey = "b_id"
		book.Indexes = []string{"b_a_id", "b_stock"}
		book.Ordered = []string{"b_price", "b_pub", "b_title"}
	}
	db.MustCreateTable(book)
	c := db.Connect()
	defer c.Close()
	insertBooks(tb, c)
	mustExec(tb, c, "INSERT INTO book (b_id, b_title, b_a_id, b_price, b_stock, b_pub) VALUES (5, 'Untitled', 2, ?, NULL, NULL)", 50)
	return db
}

// equivVariants is every {engine} × {indexes} combination.
func equivVariants(tb testing.TB) (names []string, dbs []*DB) {
	for _, mvcc := range []bool{false, true} {
		for _, indexes := range []bool{false, true} {
			names = append(names, fmt.Sprintf("mvcc=%v,indexes=%v", mvcc, indexes))
			dbs = append(dbs, equivDB(tb, mvcc, indexes))
		}
	}
	return names, dbs
}

// outcome renders a statement's result for comparison: its error, or
// its rows as a sorted multiset, or its affected-row count.
func outcome(rs *ResultSet, res ExecResult, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	if rs == nil {
		return fmt.Sprintf("affected %d", res.RowsAffected)
	}
	rows := make([]string, len(rs.Rows))
	for i, row := range rs.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = fmt.Sprintf("%T:%s", v, FormatValue(v))
		}
		rows[i] = strings.Join(cells, "|")
	}
	slices.Sort(rows)
	return strings.Join(rows, "\n")
}

// equivStatements are the statements a WHERE clause is checked under:
// one read, and two writes that leave the table as it was.
var equivStatements = []struct {
	prefix string
	write  bool
}{
	{"SELECT * FROM book WHERE ", false},
	{"UPDATE book SET b_stock = b_stock WHERE ", true},
	{"DELETE FROM book WHERE b_id < 0 AND ", true},
}

func runEquiv(db *DB, sql string, write bool, args ...any) string {
	c := db.Connect()
	defer c.Close()
	if write {
		res, err := c.Exec(sql, args...)
		return outcome(nil, res, err)
	}
	rs, err := c.Query(sql, args...)
	return outcome(rs, ExecResult{}, err)
}

// TestTypeMismatchSameErrorOnEveryPath pins the predicates that used to
// fail on a scan ("cannot compare time.Time with int64") but return no
// rows and no error through an index: a comparison whose operand cannot
// be compared with the column is an error on every path, raised before
// any path runs.
func TestTypeMismatchSameErrorOnEveryPath(t *testing.T) {
	names, dbs := equivVariants(t)
	cases := []struct {
		where string
		args  []any
		want  string
	}{
		{"b_pub > 0", nil, "sqldb: cannot compare b_pub (TIME) with int64"},
		{"b_price > 'abc'", nil, "sqldb: cannot compare b_price (FLOAT) with string"},
		{"b_stock = 'x'", nil, "sqldb: cannot compare b_stock (INT) with string"},
		{"b_a_id = 'x'", nil, "sqldb: cannot compare b_a_id (INT) with string"},
		{"b_pub > ?", []any{0}, "sqldb: cannot compare b_pub (TIME) with int64"},
		{"b_price > ?", []any{"abc"}, "sqldb: cannot compare b_price (FLOAT) with string"},
		{"b_stock = ?", []any{"x"}, "sqldb: cannot compare b_stock (INT) with string"},
		{"b_a_id = ?", []any{"x"}, "sqldb: cannot compare b_a_id (INT) with string"},
	}
	for _, tc := range cases {
		for _, st := range equivStatements {
			sql := st.prefix + tc.where
			for i, db := range dbs {
				if got := runEquiv(db, sql, st.write, tc.args...); got != "error: "+tc.want {
					t.Errorf("%s [%s]: got %q, want error %q", sql, names[i], got, tc.want)
				}
			}
		}
	}
	// Comparable operands stay legal: numbers across INT and FLOAT, and
	// NULL against anything (never true).
	for _, where := range []string{"b_stock = 5.0", "b_price > 50", "b_pub = NULL", "b_a_id = ?"} {
		for i, db := range dbs {
			if got := runEquiv(db, "SELECT b_id FROM book WHERE "+where, false, nil); strings.HasPrefix(got, "error") {
				t.Errorf("%s [%s]: %s", where, names[i], got)
			}
		}
	}
}

// FuzzPlanEquivalence checks that a single-table WHERE clause gives the
// same rows (as a multiset), affected-row count, or error on every
// {lock, mvcc} × {indexes off, on} variant of the fixture. The seed
// corpus includes the predicates that once diverged between a scan and
// an index.
func FuzzPlanEquivalence(f *testing.F) {
	for _, seed := range []string{
		"b_pub > 0",
		"b_price > 'abc'",
		"b_stock = 'x'",
		"b_a_id = 'x'",
		"b_a_id = 1.0",
		"b_stock = 5.0",
		"b_id = 2.5",
		"b_price = 50",
		"b_price >= 39.99 AND b_price < 90",
		"b_title >= 'TAOCP' AND b_title < 'The Unix'",
		"b_title LIKE '%programming%'",
		"b_stock IN (0, 5, 'x')",
		"b_pub IS NULL OR b_stock > 5",
		"NOT b_stock = 0 AND b_a_id = 2",
		"b_id = 1 OR b_price > 50",
		"b_stock > b_a_id",
		"b_pub < b_price",
		"b_id = ?",
	} {
		f.Add(seed)
	}
	names, dbs := equivVariants(f)
	f.Fuzz(func(t *testing.T, where string) {
		s, err := parseSQL("SELECT * FROM book WHERE " + where)
		if err != nil {
			return // the parser is shared by every variant
		}
		// Row order without ORDER BY, and so the rows LIMIT keeps, is
		// up to the access path.
		if sel := s.(*selectStmt); sel.Limit >= 0 || sel.Offset > 0 {
			return
		}
		for _, st := range equivStatements {
			sql := st.prefix + where
			want := runEquiv(dbs[0], sql, st.write)
			for i := 1; i < len(dbs); i++ {
				if got := runEquiv(dbs[i], sql, st.write); got != want {
					t.Fatalf("%s\n%s:\n%s\n%s:\n%s", sql, names[0], want, names[i], got)
				}
			}
		}
	})
}

package tpcw

import (
	"testing"

	"stagedweb/internal/clock"
	"stagedweb/internal/sqldb"
)

// TestCartPlansOnEmptyTables checks the cart statements' plans on a
// freshly populated database, under the default cost model. The carts
// are empty there, and that is when the statements are first prepared;
// the plans then stay cached while the carts grow, so a scan chosen
// because a table is empty right now would scan every cart line ever
// added.
func TestCartPlansOnEmptyTables(t *testing.T) {
	// The default cost model plans; the huge timescale makes its sleeps
	// vanish.
	db := sqldb.Open(sqldb.Options{Timescale: clock.Timescale(1e12)})
	if err := CreateTables(db); err != nil {
		t.Fatal(err)
	}
	if _, err := Populate(db, smallCfg); err != nil {
		t.Fatal(err)
	}
	c := db.Connect()
	defer c.Close()
	if n, _ := db.TableSize(TableCartLn); n != 0 {
		t.Fatalf("populated database has %d cart lines, want an empty cart table", n)
	}

	for sql, want := range map[string]string{
		"SELECT scl_id, scl_qty FROM shopping_cart_line WHERE scl_sc_id = ? AND scl_i_id = ?":                                      "IndexLookup(shopping_cart_line.scl_sc_id = ?)",
		"SELECT scl_i_id, scl_qty, i_id, i_title, i_cost FROM shopping_cart_line JOIN item ON scl_i_id = i_id WHERE scl_sc_id = ?": "IndexLookup(shopping_cart_line.scl_sc_id = ?)",
		"SELECT sc_time FROM shopping_cart WHERE sc_id = ?":                                                                        "PKLookup(shopping_cart.sc_id = ?)",
	} {
		rs, err := c.Query("EXPLAIN "+sql, 1, 1)
		if err != nil {
			t.Fatalf("EXPLAIN %s: %v", sql, err)
		}
		if got := rs.Str(0, "plan"); got != want {
			t.Errorf("EXPLAIN %s\n access path %s, want %s", sql, got, want)
		}
	}

	// The DML statements have no EXPLAIN; prepare them on the empty
	// tables, fill a cart, and check that running them scans nothing.
	const (
		updateLine = "UPDATE shopping_cart_line SET scl_qty = ? WHERE scl_id = ?"
		clearCart  = "DELETE FROM shopping_cart_line WHERE scl_sc_id = ?"
	)
	for _, sql := range []string{updateLine, clearCart} {
		if _, err := c.Exec(sql, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 20; i++ {
		if _, err := c.Exec("INSERT INTO shopping_cart_line (scl_id, scl_sc_id, scl_i_id, scl_qty) VALUES (NULL, ?, ?, 1)", 1+i%3, i); err != nil {
			t.Fatal(err)
		}
	}
	scans := db.PlanScans()
	if res, err := c.Exec(updateLine, 5, 7); err != nil || res.RowsAffected != 1 {
		t.Fatalf("update: %+v, %v", res, err)
	}
	if res, err := c.Exec(clearCart, 2); err != nil || res.RowsAffected != 7 {
		t.Fatalf("clear cart: %+v, %v", res, err)
	}
	if got := db.PlanScans() - scans; got != 0 {
		t.Fatalf("cart DML prepared on empty tables ran %d full scans, want 0", got)
	}
}

package sqldb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// Tests for the prepared-statement contract: a statement-cache hit binds
// arguments and runs the cached plan, and the plan is shared read-only
// by every connection.

const (
	hitItemPK = "SELECT i_id, i_title FROM item WHERE i_id = ?"
	hitJoin   = "SELECT ol_i_id, ol_qty, i_title FROM order_line JOIN item ON ol_i_id = i_id WHERE ol_o_id = ?"
	hitUpdate = "UPDATE orders SET o_status = ? WHERE o_id = ?"
)

// TestStmtHitAllocs bounds the allocations of a cache hit: the item
// primary-key lookup, the order-display join, and a primary-key UPDATE.
// Re-resolving the statement on every hit costs about twice these.
func TestStmtHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			_, c := planTestDB(t, mvcc)
			cases := []struct {
				sql   string
				args  []any
				write bool
				max   float64
			}{
				{sql: hitItemPK, args: []any{7}, max: 10},
				{sql: hitJoin, args: []any{42}, max: 20},
				{sql: hitUpdate, args: []any{"SHIPPED", 42}, write: true, max: 10},
			}
			for _, tc := range cases {
				run := func() {
					var err error
					if tc.write {
						_, err = c.Exec(tc.sql, tc.args...)
					} else {
						_, err = c.Query(tc.sql, tc.args...)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				run() // prepare and cache
				if got := testing.AllocsPerRun(200, run); got > tc.max {
					t.Errorf("%s: %.1f allocs per cache hit, want <= %.0f", tc.sql, got, tc.max)
				}
			}
		})
	}
}

// TestPreparedStatementConcurrentReuse runs one cached join SELECT and
// one cached UPDATE from many goroutines on each engine and compares
// every answer with a serial run. The plan is shared by all of them, so
// any write to it shows up here under -race.
func TestPreparedStatementConcurrentReuse(t *testing.T) {
	const workers, iters = 8, 40
	for _, mvcc := range []bool{false, true} {
		t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) {
			db, c := planTestDB(t, mvcc)
			want := make([]*ResultSet, 100)
			for o := range want {
				want[o] = mustQuery(t, c, hitJoin, o+1)
			}
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					conn := db.Connect()
					defer conn.Close()
					for i := 0; i < iters; i++ {
						o := (w*iters + i) % len(want)
						rs, err := conn.Query(hitJoin, o+1)
						if err != nil {
							errs <- err
							return
						}
						if !reflect.DeepEqual(rs.Rows, want[o].Rows) || !reflect.DeepEqual(rs.Columns, want[o].Columns) {
							errs <- fmt.Errorf("order %d: got %v, want %v", o+1, rs.Rows, want[o].Rows)
							return
						}
						// Each worker owns the orders congruent to w mod
						// workers, so the row it updates is its own.
						id := 1 + w + workers*(i%(100/workers))
						res, err := conn.Exec(hitUpdate, fmt.Sprintf("W%d-%d", w, i), id)
						if err != nil {
							errs <- err
							return
						}
						if res.RowsAffected != 1 {
							errs <- fmt.Errorf("update of order %d affected %d rows", id, res.RowsAffected)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			// The serial replay of each worker's last write is what the
			// table holds now.
			for w := 0; w < workers; w++ {
				last := map[int]string{}
				for i := 0; i < iters; i++ {
					last[1+w+workers*(i%(100/workers))] = fmt.Sprintf("W%d-%d", w, i)
				}
				for id, status := range last {
					if got := mustQuery(t, c, "SELECT o_status FROM orders WHERE o_id = ?", id).Str(0, "o_status"); got != status {
						t.Fatalf("order %d status = %q, want %q", id, got, status)
					}
				}
			}
			if db.StmtCacheHits() < workers*iters {
				t.Fatalf("statement cache hits = %d, want >= %d", db.StmtCacheHits(), workers*iters)
			}
		})
	}
}

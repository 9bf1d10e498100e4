// Package sqldb implements the embedded relational database that stands
// in for the paper's MySQL 5.0 server.
//
// It supports the SQL surface the TPC-W bookstore needs — CREATE-less
// schema registration, SELECT with WHERE / INNER JOIN / GROUP BY /
// ORDER BY / LIMIT / LIKE, aggregate functions, INSERT, UPDATE, and
// DELETE with '?' placeholders — plus the two behaviours the DSN'09
// evaluation hinges on:
//
//   - per-table reader/writer locks, so the admin-response page's UPDATE
//     on the hot item table must wait for in-flight read queries exactly
//     as the paper describes; and
//   - an injectable latency CostModel that charges paper-time for rows
//     scanned, index probes, sorts, and writes, reproducing the paper's
//     fast/slow page dichotomy (indexed point queries vs. large scans)
//     at laptop scale.
//
// # Layering
//
// Query processing is split into a plan layer and an exec layer:
//
//   - lexer.go / parser.go / ast.go parse SQL into an AST once per
//     statement text.
//   - plan.go + compile.go prepare it: plan.go resolves the tables and
//     every column position, compiles the WHERE clause (compile.go),
//     and chooses a physical access path per table — full scan,
//     primary-key lookup, hash-index point lookup, ordered-index range
//     or order walk, or index-nested-loop join — by pricing each
//     candidate with the CostModel and keeping the cheapest (an index
//     path wins a cost tie; an empty table is priced as one row).
//     stmtcache.go caches the prepared plan. EXPLAIN renders it.
//   - operators.go + exec.go are the executor: composable operators
//     that run the chosen access paths, re-checking every predicate
//     against the row version actually visible to the statement, so
//     index entries only ever have to be stale-tolerant hints.
//
// # Prepared statements
//
// Everything about a statement's shape is resolved at prepare time:
// the tables and aliases, the column positions of the WHERE clause,
// joins, projection, GROUP BY, aggregates and ORDER BY, the compiled
// per-join-depth predicates, the output column names, the table lock
// order, the access path of SELECT, UPDATE and DELETE, and the type
// check of every literal compared with a column. The plan is cached per
// SQL text and index epoch and shared read-only by every connection. A
// cache hit does three things: it binds the arguments (normalizing
// them, checking their count, and type-checking each placeholder
// compared with a column), it takes the MVCC snapshot or the table
// locks and the views they give, and it runs the plan, probing the
// access path with the bound values.
//
// A comparison whose operand compare cannot order against the column
// (a string against an INT column, a number against a TIME column) is
// therefore the same error on every access path and engine: a literal
// fails at prepare, a placeholder at bind. INT and FLOAT compare with
// each other; NULL compares with everything and is never equal. A
// statement naming an unknown table or column fails at prepare, with
// the same message as before, and is not cached.
//   - index.go maintains the secondary indexes (hash for equality,
//     ordered copy-on-write slabs for ranges and ordering)
//     transactionally under both engines; CreateIndex bumps the
//     database's index epoch, which invalidates cached plans so every
//     statement is replanned against the new physical schema.
//
// Storage is row-versioned: every committed DML statement stamps the
// versions it installs with a dense per-database commit timestamp, and
// a statement's rows are all-or-nothing — no reader at any timestamp
// observes half of a multi-row UPDATE. Two concurrency disciplines
// interpret that storage, selected by Options.MVCC / DB.SetMVCC:
//
//   - mvcc=off (default): any number of connections may execute
//     concurrently; each statement locks the tables it touches (read or
//     write) for its duration, like MySQL's MyISAM table locking that
//     the paper's admin page contends on.
//   - mvcc=on: SELECTs run lock-free against a pinned snapshot of the
//     current commit timestamp, and DML commits optimistically with
//     first-writer-wins conflict detection (ErrWriteConflict, counted
//     by DB.Conflicts) and transparent retry inside Conn.Exec. Readers
//     never block writers and writers never block readers; cost-model
//     sleeps happen outside the engine's commit critical section.
//
// Either way every commit appends to the optional versioned replication
// log (DB.EnableReplLog), which internal/dbtier ships to replicas, and
// DB.Snapshot / DB.SnapshotAt expose pinned time-travel read views.
package sqldb

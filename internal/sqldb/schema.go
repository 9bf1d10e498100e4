package sqldb

import (
	"fmt"
	"time"
)

// ColumnType declares the storage type of a column.
type ColumnType int

// Column types.
const (
	Int ColumnType = iota + 1
	Float
	String
	Bool
	Time
)

func (t ColumnType) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "STRING"
	case Bool:
		return "BOOL"
	case Time:
		return "TIME"
	default:
		return "UNKNOWN"
	}
}

// accepts reports whether v (normalized) is storable in a column of this
// type. NULL is storable everywhere.
func (t ColumnType) accepts(v Value) bool {
	if v == nil {
		return true
	}
	switch t {
	case Int:
		_, ok := v.(int64)
		return ok
	case Float:
		switch v.(type) {
		case float64, int64:
			return true
		}
		return false
	case String:
		_, ok := v.(string)
		return ok
	case Bool:
		_, ok := v.(bool)
		return ok
	case Time:
		_, ok := v.(time.Time)
		return ok
	default:
		return false
	}
}

// numeric reports whether the type holds numbers; compare orders int64
// and float64 values against each other.
func (t ColumnType) numeric() bool { return t == Int || t == Float }

// comparable reports whether compare can order v against values of
// this type: the storable types, plus int64 and float64 for either
// numeric type. NULL compares with everything.
func (t ColumnType) comparable(v Value) bool {
	if t.numeric() {
		switch v.(type) {
		case nil, int64, float64:
			return true
		}
		return false
	}
	return t.accepts(v)
}

// Column is one column definition.
type Column struct {
	Name string
	Type ColumnType
}

// Schema declares a table: its columns, primary key, and secondary
// indexes — hash (equality only) and ordered (equality, ranges, and
// ORDER BY). The primary key must be an Int column; inserting NULL as
// the primary key auto-assigns the next value (MySQL AUTO_INCREMENT).
// A column may appear in Indexes or Ordered, not both; DB.CreateIndex
// adds or upgrades indexes on a live table.
type Schema struct {
	Table      string
	Columns    []Column
	PrimaryKey string   // column name; optional
	Indexes    []string // secondary hash-indexed column names
	Ordered    []string // secondary ordered-indexed column names
}

// validate checks internal consistency.
func (s Schema) validate() error {
	if s.Table == "" {
		return fmt.Errorf("sqldb: schema with empty table name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("sqldb: table %q has no columns", s.Table)
	}
	seen := make(map[string]ColumnType, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("sqldb: table %q has an unnamed column", s.Table)
		}
		if _, dup := seen[c.Name]; dup {
			return fmt.Errorf("sqldb: table %q duplicates column %q", s.Table, c.Name)
		}
		seen[c.Name] = c.Type
	}
	if s.PrimaryKey != "" {
		t, ok := seen[s.PrimaryKey]
		if !ok {
			return fmt.Errorf("sqldb: table %q primary key %q is not a column", s.Table, s.PrimaryKey)
		}
		if t != Int {
			return fmt.Errorf("sqldb: table %q primary key %q must be INT", s.Table, s.PrimaryKey)
		}
	}
	hashIdx := make(map[string]bool, len(s.Indexes))
	for _, idx := range s.Indexes {
		if _, ok := seen[idx]; !ok {
			return fmt.Errorf("sqldb: table %q index on unknown column %q", s.Table, idx)
		}
		hashIdx[idx] = true
	}
	for _, idx := range s.Ordered {
		if _, ok := seen[idx]; !ok {
			return fmt.Errorf("sqldb: table %q ordered index on unknown column %q", s.Table, idx)
		}
		if hashIdx[idx] {
			return fmt.Errorf("sqldb: table %q declares column %q as both hash and ordered index", s.Table, idx)
		}
	}
	return nil
}

// colIndex returns the position of name, or -1.
func (s Schema) colIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

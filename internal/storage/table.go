package storage

import (
	"fmt"
	"sync"

	"inkfuse/internal/types"
)

// Table is an in-memory columnar base table.
type Table struct {
	Name   string
	Schema types.Schema
	Cols   []*Vector
	rows   int
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema types.Schema) *Table {
	t := &Table{Name: name, Schema: schema, Cols: make([]*Vector, len(schema))}
	for i, c := range schema {
		t.Cols[i] = NewVector(c.Kind, 0)
	}
	return t
}

// Rows returns the row count.
func (t *Table) Rows() int { return t.rows }

// SetRows resizes all columns; the generator fills them in place.
func (t *Table) SetRows(n int) {
	for _, c := range t.Cols {
		c.Resize(n)
	}
	t.rows = n
}

// Col returns the column vector with the given name.
func (t *Table) Col(name string) *Vector {
	i := t.Schema.IndexOf(name)
	if i < 0 {
		panic(fmt.Sprintf("storage: table %s has no column %q", t.Name, name))
	}
	return t.Cols[i]
}

// AppendRow appends a row of scalars; test helper.
func (t *Table) AppendRow(vals ...any) {
	if len(vals) != len(t.Cols) {
		panic(fmt.Sprintf("storage: AppendRow arity %d vs %d cols", len(vals), len(t.Cols)))
	}
	n := t.rows
	t.SetRows(n + 1)
	for i, v := range vals {
		t.Cols[i].SetValue(n, v)
	}
}

// Catalog maps table names to tables.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Add registers a table; replaces an existing table with the same name.
func (c *Catalog) Add(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[t.Name] = t
}

// Get returns the named table or an error.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", name)
	}
	return t, nil
}

// MustGet is Get that panics; for tables the caller knows the catalog holds.
func (c *Catalog) MustGet(name string) *Table {
	t, err := c.Get(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Names returns the registered table names.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}

// Morsel is a half-open range of base-table rows processed as a unit by one
// worker (morsel-driven parallelism, paper §V-B).
type Morsel struct {
	Start, End int
}

// Rows returns the number of rows in the morsel.
func (m Morsel) Rows() int { return m.End - m.Start }

// DefaultMorselRows is the default morsel size.
const DefaultMorselRows = 16384

// Morsels splits n rows into ranges of at most size rows.
func Morsels(n, size int) []Morsel {
	if size <= 0 {
		size = DefaultMorselRows
	}
	out := make([]Morsel, 0, n/size+1)
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		out = append(out, Morsel{Start: lo, End: hi})
	}
	return out
}

package relstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// RowID identifies a stored row within a table. RowIDs are allocated
// monotonically.
type RowID uint64

// Column describes one table column.
type Column struct {
	Name     string
	Type     ColType
	Nullable bool
}

// Schema describes a table: its name, ordered columns, and the name of the
// primary-key column (optional; "" means no primary key — rows are then
// addressable only by RowID).
type Schema struct {
	Name    string
	Columns []Column
	Key     string
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Validate checks schema well-formedness.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("relstore: schema with empty table name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("relstore: table %q has no columns", s.Name)
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		lc := strings.ToLower(c.Name)
		if c.Name == "" {
			return fmt.Errorf("relstore: table %q has an unnamed column", s.Name)
		}
		if seen[lc] {
			return fmt.Errorf("relstore: table %q: duplicate column %q", s.Name, c.Name)
		}
		if c.Type == TInvalid {
			return fmt.Errorf("relstore: table %q: column %q has no type", s.Name, c.Name)
		}
		seen[lc] = true
	}
	if s.Key != "" && s.ColIndex(s.Key) < 0 {
		return fmt.Errorf("relstore: table %q: key column %q not in schema", s.Name, s.Key)
	}
	return nil
}

// Table is a stored relation.
type Table struct {
	mu      sync.RWMutex
	schema  Schema
	nextRID RowID
	rows    map[RowID]Row
	order   []RowID           // insertion order
	indexes map[string]*btree // column name (lower) -> index
	pk      map[string]RowID  // primary key value (canonical string) -> rid
}

func newTable(s Schema) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		schema:  s,
		nextRID: 1,
		rows:    make(map[RowID]Row),
		indexes: make(map[string]*btree),
	}
	if s.Key != "" {
		t.pk = make(map[string]RowID)
	}
	return t, nil
}

// Schema returns a copy of the table schema.
func (t *Table) Schema() Schema {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := t.schema
	s.Columns = append([]Column(nil), t.schema.Columns...)
	return s
}

func pkKey(v Value) string { return v.Type.String() + ":" + v.String() }

// normalize coerces a row to the schema's column types and checks arity,
// NULLability and key presence.
func (t *Table) normalize(r Row) (Row, error) {
	if len(r) != len(t.schema.Columns) {
		return nil, fmt.Errorf("relstore: %s: row has %d cells, schema has %d columns", t.schema.Name, len(r), len(t.schema.Columns))
	}
	out := make(Row, len(r))
	for i, c := range t.schema.Columns {
		v := r[i]
		if v.IsNull() {
			if !c.Nullable {
				return nil, fmt.Errorf("relstore: %s: NULL in non-nullable column %q", t.schema.Name, c.Name)
			}
			out[i] = Null
			continue
		}
		cv, err := Coerce(v, c.Type)
		if err != nil {
			return nil, fmt.Errorf("relstore: %s: column %q: %v", t.schema.Name, c.Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

// Insert adds a row (coercing cell types to the schema) and returns its
// RowID. Primary-key violations are errors.
func (t *Table) Insert(r Row) (RowID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row, err := t.normalize(r)
	if err != nil {
		return 0, err
	}
	if t.pk != nil {
		ki := t.schema.ColIndex(t.schema.Key)
		kv := row[ki]
		if kv.IsNull() {
			return 0, fmt.Errorf("relstore: %s: NULL primary key", t.schema.Name)
		}
		if _, dup := t.pk[pkKey(kv)]; dup {
			return 0, fmt.Errorf("relstore: %s: duplicate key %v", t.schema.Name, kv)
		}
		t.pk[pkKey(kv)] = t.nextRID
	}
	rid := t.nextRID
	t.nextRID++
	t.rows[rid] = row
	t.order = append(t.order, rid)
	for col, idx := range t.indexes {
		ci := t.schema.ColIndex(col)
		idx.Insert(row[ci], rid)
	}
	return rid, nil
}

// InsertVals is a convenience that builds a row from Go values.
func (t *Table) InsertVals(vals ...any) (RowID, error) {
	r := make(Row, len(vals))
	for i, v := range vals {
		cv, err := Of(v)
		if err != nil {
			return 0, err
		}
		r[i] = cv
	}
	return t.Insert(r)
}

// Get returns a copy of the row with the given RowID, or nil.
func (t *Table) Get(rid RowID) Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.rows[rid]
	if !ok {
		return nil
	}
	return r.Clone()
}

// GetByKey returns (rid, row) for the given primary key value, or (0, nil).
func (t *Table) GetByKey(key Value) (RowID, Row) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pk == nil {
		return 0, nil
	}
	ki := t.schema.ColIndex(t.schema.Key)
	kv, err := Coerce(key, t.schema.Columns[ki].Type)
	if err != nil {
		return 0, nil
	}
	rid, ok := t.pk[pkKey(kv)]
	if !ok {
		return 0, nil
	}
	return rid, t.rows[rid].Clone()
}

// Update replaces the row at rid. The primary key may change if it stays
// unique.
func (t *Table) Update(rid RowID, r Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.rows[rid]
	if !ok {
		return fmt.Errorf("relstore: %s: no row %d", t.schema.Name, rid)
	}
	row, err := t.normalize(r)
	if err != nil {
		return err
	}
	if t.pk != nil {
		ki := t.schema.ColIndex(t.schema.Key)
		oldK, newK := pkKey(old[ki]), pkKey(row[ki])
		if oldK != newK {
			if _, dup := t.pk[newK]; dup {
				return fmt.Errorf("relstore: %s: duplicate key %v", t.schema.Name, row[ki])
			}
			delete(t.pk, oldK)
			t.pk[newK] = rid
		}
	}
	for col, idx := range t.indexes {
		ci := t.schema.ColIndex(col)
		if Compare(old[ci], row[ci]) != 0 {
			idx.Delete(old[ci], rid)
			idx.Insert(row[ci], rid)
		}
	}
	t.rows[rid] = row
	return nil
}

// CreateIndex builds a secondary B-tree index on the named column. Creating
// an existing index is a no-op.
func (t *Table) CreateIndex(col string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ci := t.schema.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("relstore: %s: no column %q", t.schema.Name, col)
	}
	lc := strings.ToLower(col)
	if _, ok := t.indexes[lc]; ok {
		return nil
	}
	idx := newBTree()
	for rid, row := range t.rows {
		idx.Insert(row[ci], rid)
	}
	t.indexes[lc] = idx
	return nil
}

// HasIndex reports whether the column has a secondary index.
func (t *Table) HasIndex(col string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[strings.ToLower(col)]
	return ok
}

// Scan visits every row in insertion order. The row passed to visit is
// shared — visit must not retain or mutate it. Returning false stops the
// scan.
func (t *Table) Scan(visit func(RowID, Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, rid := range t.order {
		if !visit(rid, t.rows[rid]) {
			return
		}
	}
}

// IndexLookup returns the RowIDs whose indexed column equals v (coerced to
// the column type), in ascending order; ok=false when no index exists.
func (t *Table) IndexLookup(col string, v Value) (rids []RowID, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, exists := t.indexes[strings.ToLower(col)]
	if !exists {
		return nil, false
	}
	ci := t.schema.ColIndex(col)
	cv, err := Coerce(v, t.schema.Columns[ci].Type)
	if err != nil {
		return nil, true // index exists; value can never match
	}
	return idx.Lookup(cv), true
}

// DB is a named collection of tables.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// Create creates a table from the schema.
func (db *DB) Create(s Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	lc := strings.ToLower(s.Name)
	if _, ok := db.tables[lc]; ok {
		return nil, fmt.Errorf("relstore: table %q already exists", s.Name)
	}
	t, err := newTable(s)
	if err != nil {
		return nil, err
	}
	db.tables[lc] = t
	return t, nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// Names returns the table names in sorted order.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.schema.Name)
	}
	sort.Strings(out)
	return out
}

package relsql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/relstore"
)

// This file implements the query executor: multi-table selects with
// predicate pushdown and index-accelerated equi-joins, projection, DISTINCT,
// ORDER BY and LIMIT. The SQL front end (sql.go) parses into SelectStmt.

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

func (t TableRef) binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// SelectItem is one projected output: an expression with an optional alias.
// A nil Expr with Star=true projects every column of every bound table.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a select query over one or more tables (inner joins).
type SelectStmt struct {
	Items    []SelectItem
	From     []TableRef
	Where    Expr // nil means true
	OrderBy  []OrderKey
	Limit    int // -1 means no limit
	Distinct bool
}

// ResultSet holds query output.
type ResultSet struct {
	Cols []string
	Rows []relstore.Row
}

// rowEnv binds qualified columns for a partial join row.
type rowEnv struct {
	// bindings: per table-ref index, the schema and current row (nil if not
	// yet bound).
	refs    []TableRef
	schemas []relstore.Schema
	rows    []relstore.Row
}

// Lookup implements Env.
func (e *rowEnv) Lookup(q, c string) (relstore.Value, error) {
	if q != "" {
		for i, r := range e.refs {
			if strings.EqualFold(r.binding(), q) {
				if e.rows[i] == nil {
					return relstore.Null, fmt.Errorf("relstore: column %s.%s not yet bound", q, c)
				}
				ci := e.schemas[i].ColIndex(c)
				if ci < 0 {
					return relstore.Null, fmt.Errorf("relstore: no column %q in %s", c, q)
				}
				return e.rows[i][ci], nil
			}
		}
		return relstore.Null, fmt.Errorf("relstore: unknown table %q", q)
	}
	found := -1
	foundCol := -1
	for i := range e.refs {
		ci := e.schemas[i].ColIndex(c)
		if ci >= 0 {
			if found >= 0 {
				return relstore.Null, fmt.Errorf("relstore: ambiguous column %q", c)
			}
			found, foundCol = i, ci
		}
	}
	if found < 0 {
		return relstore.Null, fmt.Errorf("relstore: unknown column %q", c)
	}
	if e.rows[found] == nil {
		return relstore.Null, fmt.Errorf("relstore: column %s not yet bound", c)
	}
	return e.rows[found][foundCol], nil
}

// boundBy reports whether every column reference in e can be resolved using
// only the table refs whose index is < k (i.e. already bound in join order).
func exprBoundBy(e Expr, refs []TableRef, schemas []relstore.Schema, k int) bool {
	for _, c := range colsOf(e) {
		ok := false
		for i := 0; i < k; i++ {
			if c.Table != "" {
				if strings.EqualFold(refs[i].binding(), c.Table) && schemas[i].ColIndex(c.Name) >= 0 {
					ok = true
					break
				}
			} else if schemas[i].ColIndex(c.Name) >= 0 {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Exec runs the select against db.
func Exec(db *relstore.DB, q *SelectStmt) (*ResultSet, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("relstore: select with no FROM")
	}
	tables := make([]*relstore.Table, len(q.From))
	schemas := make([]relstore.Schema, len(q.From))
	for i, r := range q.From {
		t := db.Table(r.Table)
		if t == nil {
			return nil, fmt.Errorf("relstore: no table %q", r.Table)
		}
		tables[i] = t
		schemas[i] = t.Schema()
	}

	// Split WHERE into conjuncts; each conjunct is applied at the earliest
	// join depth where all its columns are bound (predicate pushdown).
	conj := conjuncts(q.Where)
	atDepth := make([][]Expr, len(q.From)+1)
	for _, c := range conj {
		placed := false
		for k := 1; k <= len(q.From); k++ {
			if exprBoundBy(c, q.From, schemas, k) {
				atDepth[k] = append(atDepth[k], c)
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("relstore: predicate %s references unknown columns", c)
		}
	}

	// Identify index-join opportunities: an equality conjunct at depth k of
	// the form tk.col = <expr bound by depth k-1> where tk.col is indexed or
	// is the primary key.
	type access struct {
		col   string // column on table k-1 (join order index k-1)
		inner Expr   // expression evaluated against outer bindings
	}
	accessFor := make([]*access, len(q.From))
	for k := 1; k <= len(q.From); k++ {
		ti := k - 1
		for _, c := range atDepth[k] {
			cmp, ok := c.(Cmp)
			if !ok || cmp.Op != OpEq {
				continue
			}
			tryCol := func(colE, otherE Expr) *access {
				col, ok := colE.(Col)
				if !ok {
					return nil
				}
				// col must belong to table ti
				belongs := false
				if col.Table != "" {
					belongs = strings.EqualFold(q.From[ti].binding(), col.Table) && schemas[ti].ColIndex(col.Name) >= 0
				} else {
					belongs = schemas[ti].ColIndex(col.Name) >= 0 && !exprBoundBy(col, q.From, schemas, ti)
				}
				if !belongs {
					return nil
				}
				if !exprBoundBy(otherE, q.From, schemas, ti) {
					return nil
				}
				usable := tables[ti].HasIndex(col.Name) || strings.EqualFold(schemas[ti].Key, col.Name)
				if !usable {
					return nil
				}
				return &access{col: col.Name, inner: otherE}
			}
			if a := tryCol(cmp.L, cmp.R); a != nil {
				accessFor[ti] = a
				break
			}
			if a := tryCol(cmp.R, cmp.L); a != nil {
				accessFor[ti] = a
				break
			}
		}
	}

	env := &rowEnv{refs: q.From, schemas: schemas, rows: make([]relstore.Row, len(q.From))}

	// Column headers for star projection.
	var starCols []string
	for i, s := range schemas {
		for _, c := range s.Columns {
			if len(q.From) > 1 {
				starCols = append(starCols, q.From[i].binding()+"."+c.Name)
			} else {
				starCols = append(starCols, c.Name)
			}
		}
	}

	out := &ResultSet{}
	for _, it := range q.Items {
		switch {
		case it.Star:
			out.Cols = append(out.Cols, starCols...)
		case it.Alias != "":
			out.Cols = append(out.Cols, it.Alias)
		default:
			out.Cols = append(out.Cols, it.Expr.String())
		}
	}

	type sortable struct {
		keys relstore.Row
		row  relstore.Row
	}
	var collected []sortable
	needSort := len(q.OrderBy) > 0
	limit := q.Limit
	if limit < 0 {
		limit = 1 << 30
	}

	emit := func() (bool, error) {
		var row relstore.Row
		for _, it := range q.Items {
			if it.Star {
				for i := range schemas {
					row = append(row, env.rows[i]...)
				}
				continue
			}
			v, err := it.Expr.Eval(env)
			if err != nil {
				return false, err
			}
			row = append(row, v)
		}
		s := sortable{row: row}
		if needSort {
			for _, k := range q.OrderBy {
				v, err := k.Expr.Eval(env)
				if err != nil {
					return false, err
				}
				s.keys = append(s.keys, v)
			}
		}
		collected = append(collected, s)
		// Early exit only when no sort and no distinct.
		if !needSort && !q.Distinct && len(collected) >= limit {
			return false, nil
		}
		return true, nil
	}

	var joinErr error
	var recur func(k int) bool // returns false to abort
	recur = func(k int) bool {
		if k == len(q.From) {
			cont, err := emit()
			if err != nil {
				joinErr = err
				return false
			}
			return cont
		}
		filters := atDepth[k+1]
		tryRow := func(rid relstore.RowID, row relstore.Row) bool {
			env.rows[k] = row
			for _, f := range filters {
				ok, err := evalBool(f, env)
				if err != nil {
					joinErr = err
					return false
				}
				if !ok {
					env.rows[k] = nil
					return true // next row
				}
			}
			cont := recur(k + 1)
			env.rows[k] = nil
			return cont
		}
		if a := accessFor[k]; a != nil {
			v, err := a.inner.Eval(env)
			if err != nil {
				joinErr = err
				return false
			}
			if strings.EqualFold(schemas[k].Key, a.col) && !tables[k].HasIndex(a.col) {
				rid, row := tables[k].GetByKey(v)
				if row == nil {
					return true
				}
				return tryRow(rid, row)
			}
			rids, _ := tables[k].IndexLookup(a.col, v)
			for _, rid := range rids {
				row := tables[k].Get(rid)
				if row == nil {
					continue
				}
				if !tryRow(rid, row) {
					return false
				}
			}
			return true
		}
		cont := true
		tables[k].Scan(func(rid relstore.RowID, row relstore.Row) bool {
			cont = tryRow(rid, row.Clone())
			return cont
		})
		return cont
	}
	recur(0)
	if joinErr != nil {
		return nil, joinErr
	}

	if needSort {
		sort.SliceStable(collected, func(i, j int) bool {
			for ki, k := range q.OrderBy {
				c := relstore.Compare(collected[i].keys[ki], collected[j].keys[ki])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	seen := map[string]bool{}
	for _, s := range collected {
		if q.Distinct {
			key := rowKey(s.row)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		out.Rows = append(out.Rows, s.row)
		if len(out.Rows) >= limit {
			break
		}
	}
	return out, nil
}

// rowKey builds the DISTINCT dedup key. Every cell is length-prefixed: a
// separator-based encoding is ambiguous the moment a string value contains
// the separator (e.g. rows ("a\x00text:b") and ("a","b") used to collide),
// and DISTINCT would silently drop a genuinely distinct row.
func rowKey(r relstore.Row) string {
	var sb strings.Builder
	for _, v := range r {
		t := v.Type.String()
		s := v.String()
		sb.WriteString(strconv.Itoa(len(t)))
		sb.WriteByte(':')
		sb.WriteString(t)
		sb.WriteString(strconv.Itoa(len(s)))
		sb.WriteByte(':')
		sb.WriteString(s)
	}
	return sb.String()
}

// Format renders the result set as an aligned text table (used by the CLI
// and the examples).
func (rs *ResultSet) Format() string {
	widths := make([]int, len(rs.Cols))
	for i, c := range rs.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rs.Rows))
	for ri, r := range rs.Rows {
		cells[ri] = make([]string, len(r))
		for ci, v := range r {
			s := v.String()
			if v.IsNull() {
				s = "NULL"
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(v)
			for p := len(v); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(rs.Cols)
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	writeRow(sep)
	for _, r := range cells {
		writeRow(r)
	}
	return sb.String()
}

package warehouse

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"repro/internal/relstore"
)

// CSV snapshots serialize a table to a stream and back. The first record is
// a typed header ("name:type[:key][:null]"), so a snapshot is
// self-describing and can be restored into an empty database. Archive and
// Restore use them (GUS's "archiving of data supported" row in Table 1).

// dumpCSV writes the table as a typed-header CSV.
func dumpCSV(t *relstore.Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	s := t.Schema()
	header := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		h := c.Name + ":" + c.Type.String()
		if strings.EqualFold(s.Key, c.Name) {
			h += ":key"
		} else if c.Nullable {
			h += ":null"
		}
		header[i] = h
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	var scanErr error
	t.Scan(func(_ relstore.RowID, r relstore.Row) bool {
		rec := make([]string, len(r))
		for i, v := range r {
			if v.IsNull() {
				rec[i] = "\x00NULL"
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			scanErr = err
			return false
		}
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	cw.Flush()
	return cw.Error()
}

// loadCSV creates a table named name in db from a typed-header CSV stream.
func loadCSV(db *relstore.DB, name string, r io.Reader) (*relstore.Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("warehouse: csv: %v", err)
	}
	s := relstore.Schema{Name: name}
	for _, h := range header {
		parts := strings.Split(h, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("warehouse: csv: bad header field %q", h)
		}
		ct, err := parseColType(parts[1])
		if err != nil {
			return nil, err
		}
		col := relstore.Column{Name: parts[0], Type: ct}
		for _, flag := range parts[2:] {
			switch flag {
			case "key":
				s.Key = parts[0]
			case "null":
				col.Nullable = true
			}
		}
		// dumpCSV flags every nullable column but the key, which is never
		// nullable: a column without a flag was declared NOT NULL.
		s.Columns = append(s.Columns, col)
	}
	t, err := db.Create(s)
	if err != nil {
		return nil, err
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("warehouse: csv: %v", err)
		}
		if len(rec) != len(s.Columns) {
			return nil, fmt.Errorf("warehouse: csv: record has %d fields, want %d", len(rec), len(s.Columns))
		}
		row := make(relstore.Row, len(rec))
		for i, f := range rec {
			if f == "\x00NULL" {
				row[i] = relstore.Null
				continue
			}
			v, err := relstore.Coerce(relstore.Text(f), s.Columns[i].Type)
			if err != nil {
				return nil, fmt.Errorf("warehouse: csv: row value %q: %v", f, err)
			}
			row[i] = v
		}
		if _, err := t.Insert(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// parseColType reads back a header's type name, as ColType.String wrote it.
func parseColType(s string) (relstore.ColType, error) {
	for _, t := range []relstore.ColType{relstore.TInt, relstore.TFloat, relstore.TText, relstore.TBool} {
		if s == t.String() {
			return t, nil
		}
	}
	return relstore.TInvalid, fmt.Errorf("warehouse: csv: unknown column type %q", s)
}

// Package relstore is a small embedded relational store: typed tables with
// primary keys and secondary B-tree indexes.
//
// ANNODA's participating sources "have their own storage structure and
// implementation"; LocusLink is relational in spirit and keeps its records
// here. The paper's SQL baselines query the same tables through
// internal/baselines/relsql, which this package does not depend on.
//
// It is deliberately not a full DBMS: no query language, no transactions,
// no persistence, single-process. All operations are safe for concurrent
// readers; writes take an exclusive lock per table.
package relstore

import (
	"fmt"
	"strconv"
	"strings"
)

// ColType enumerates column types.
type ColType uint8

const (
	TInvalid ColType = iota
	TInt             // 64-bit integer
	TFloat           // 64-bit float
	TText            // UTF-8 string
	TBool            // boolean
)

var colTypeNames = [...]string{"invalid", "int", "float", "text", "bool"}

func (t ColType) String() string {
	if int(t) < len(colTypeNames) {
		return colTypeNames[t]
	}
	return fmt.Sprintf("coltype(%d)", uint8(t))
}

// Value is a single typed cell. The zero Value is NULL.
type Value struct {
	Type ColType // TInvalid means NULL
	I    int64
	F    float64
	S    string
	B    bool
}

// Null is the NULL value.
var Null = Value{}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Type == TInvalid }

// Int returns an integer value.
func Int(i int64) Value { return Value{Type: TInt, I: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{Type: TFloat, F: f} }

// Text returns a text value.
func Text(s string) Value { return Value{Type: TText, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{Type: TBool, B: b} }

// Of converts a Go value into a Value. Supported: nil, int, int64, float64,
// string, bool.
func Of(x any) (Value, error) {
	switch v := x.(type) {
	case nil:
		return Null, nil
	case int:
		return Int(int64(v)), nil
	case int64:
		return Int(v), nil
	case float64:
		return Float(v), nil
	case string:
		return Text(v), nil
	case bool:
		return Bool(v), nil
	case Value:
		return v, nil
	}
	return Null, fmt.Errorf("relstore: cannot convert %T to Value", x)
}

// String renders the value for display and CSV; NULL renders as "".
func (v Value) String() string {
	switch v.Type {
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TText:
		return v.S
	case TBool:
		return strconv.FormatBool(v.B)
	}
	return ""
}

// Compare orders two values. NULL sorts before everything; values of
// different types order by numeric coercion when both sides are numeric,
// otherwise by type tag then native comparison. The ordering is total, which
// the B-tree index requires.
func Compare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if isNum(a) && isNum(b) {
		af, bf := a.asFloat(), b.asFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		// Equal numerically: break ties by type so ordering stays total and
		// deterministic (all ints before floats of same magnitude).
		return int(a.Type) - int(b.Type)
	}
	if a.Type != b.Type {
		return int(a.Type) - int(b.Type)
	}
	switch a.Type {
	case TText:
		return strings.Compare(a.S, b.S)
	case TBool:
		switch {
		case a.B == b.B:
			return 0
		case !a.B:
			return -1
		default:
			return 1
		}
	}
	return 0
}

func isNum(v Value) bool { return v.Type == TInt || v.Type == TFloat }

func (v Value) asFloat() float64 {
	if v.Type == TInt {
		return float64(v.I)
	}
	return v.F
}

// Coerce converts v to the target type where a lossless or conventional
// conversion exists (int<->float, anything->text, text->number if it
// parses). It returns an error otherwise. NULL coerces to NULL.
func Coerce(v Value, t ColType) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	if v.Type == t {
		return v, nil
	}
	switch t {
	case TInt:
		switch v.Type {
		case TFloat:
			return Int(int64(v.F)), nil
		case TText:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("relstore: cannot coerce %q to int", v.S)
			}
			return Int(i), nil
		case TBool:
			if v.B {
				return Int(1), nil
			}
			return Int(0), nil
		}
	case TFloat:
		switch v.Type {
		case TInt:
			return Float(float64(v.I)), nil
		case TText:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return Null, fmt.Errorf("relstore: cannot coerce %q to float", v.S)
			}
			return Float(f), nil
		}
	case TText:
		return Text(v.String()), nil
	case TBool:
		switch v.Type {
		case TInt:
			return Bool(v.I != 0), nil
		case TText:
			b, err := strconv.ParseBool(strings.ToLower(strings.TrimSpace(v.S)))
			if err != nil {
				return Null, fmt.Errorf("relstore: cannot coerce %q to bool", v.S)
			}
			return Bool(b), nil
		}
	}
	return Null, fmt.Errorf("relstore: cannot coerce %v to %v", v.Type, t)
}

// Row is one tuple; cells align with the table schema's columns.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row { return append(Row(nil), r...) }

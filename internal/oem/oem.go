// Package oem implements the Object Exchange Model (OEM) used by ANNODA to
// represent semi-structured annotation data.
//
// OEM (Papakonstantinou, Garcia-Molina, Widom; ICDE 1995) models all data as
// objects. Every object has a unique object identifier (oid). Atomic objects
// carry a value of one of the disjoint basic atomic types (integer, real,
// string, boolean, gif, url). Complex objects carry a set of object
// references, each a (label, oid) pair; the referenced object's type
// completes the (label, oid, type) triple the ANNODA paper describes.
//
// ANNODA extends plain OEM with explicit value types on atoms so that values
// from different sources can be compared; that extension is native here: the
// Kind of an object is always known.
//
// Data represented in OEM can be thought of as a graph with objects as the
// vertices and labels as the edges. The Graph type in this package is that
// graph; the text codec in text.go reproduces the paper's Figure 3 notation.
package oem

import (
	"fmt"
	"strconv"
)

// OID is a unique object identifier within one Graph.
//
// OID 0 is reserved and invalid; the paper's "&1", "&442" notation maps
// directly onto these values. A graph numbers its objects densely from 1
// and indexes them by oid. An oid freed by RemoveSubtree is handed out
// again by a later allocation in the same graph, lowest first; a graph
// that never removes objects never reuses one.
type OID uint64

// String renders the oid in the paper's ampersand notation, e.g. "&42".
func (o OID) String() string { return "&" + strconv.FormatUint(uint64(o), 10) }

// Kind enumerates the OEM object types. The atomic kinds mirror the paper's
// list "integer, real, string, gif, etc."; Complex marks objects whose value
// is a set of object references.
type Kind uint8

const (
	KindInvalid Kind = iota
	KindInt          // 64-bit signed integer
	KindReal         // 64-bit float
	KindString       // UTF-8 text
	KindBool         // boolean
	KindGif          // opaque binary image payload
	KindURL          // web-link; ANNODA uses these for interactive navigation
	KindComplex      // set of (label, oid) references
)

var kindNames = [...]string{
	KindInvalid: "invalid",
	KindInt:     "integer",
	KindReal:    "real",
	KindString:  "string",
	KindBool:    "boolean",
	KindGif:     "gif",
	KindURL:     "url",
	KindComplex: "complex",
}

// String returns the paper's lowercase name for the kind ("integer",
// "complex", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind is the inverse of Kind.String. It returns KindInvalid and an
// error for unknown names.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if Kind(k) != KindInvalid && name == s {
			return Kind(k), nil
		}
	}
	return KindInvalid, fmt.Errorf("oem: unknown kind %q", s)
}

// Atomic reports whether the kind is one of the atomic value kinds.
func (k Kind) Atomic() bool { return k > KindInvalid && k < KindComplex }

// Ref is one object reference inside a complex object: an edge of the OEM
// graph. The label names the relationship; Target is the referenced oid.
type Ref struct {
	Label  string
	Target OID
}

// Object is one OEM object. Exactly one payload group is meaningful,
// selected by Kind:
//
//	KindInt     -> Int
//	KindReal    -> Real
//	KindString  -> Str
//	KindURL     -> Str
//	KindBool    -> Bool
//	KindGif     -> Raw
//	KindComplex -> Refs
//
// Objects are owned by the Graph that created them; callers must treat the
// fields as read-only and mutate only through Graph methods, which preserve
// the graph's internal invariants.
type Object struct {
	ID   OID
	Kind Kind

	Int  int64
	Real float64
	Str  string
	Bool bool
	Raw  []byte

	Refs []Ref
}

// IsAtomic reports whether the object carries an atomic value.
func (o *Object) IsAtomic() bool { return o.Kind.Atomic() }

// IsComplex reports whether the object is a complex object.
func (o *Object) IsComplex() bool { return o.Kind == KindComplex }

// AtomString renders an atomic object's value in the textual form used by
// the Figure 3 codec (strings and URLs quoted, numerics bare). It returns
// "" for complex or invalid objects.
func (o *Object) AtomString() string {
	switch o.Kind {
	case KindInt:
		return strconv.FormatInt(o.Int, 10)
	case KindReal:
		return strconv.FormatFloat(o.Real, 'g', -1, 64)
	case KindString, KindURL:
		return strconv.Quote(o.Str)
	case KindBool:
		return strconv.FormatBool(o.Bool)
	case KindGif:
		return fmt.Sprintf("<%d bytes>", len(o.Raw))
	}
	return ""
}

// Value returns the atomic payload as an untyped Go value (int64, float64,
// string, bool or []byte), or nil for complex objects. URL objects yield
// their string form.
func (o *Object) Value() any {
	switch o.Kind {
	case KindInt:
		return o.Int
	case KindReal:
		return o.Real
	case KindString, KindURL:
		return o.Str
	case KindBool:
		return o.Bool
	case KindGif:
		return o.Raw
	}
	return nil
}

// RefTargets returns the oids referenced under the given label, in insertion
// order. A nil object or an atomic object yields nil.
func (o *Object) RefTargets(label string) []OID {
	if o == nil || o.Kind != KindComplex {
		return nil
	}
	var out []OID
	for _, r := range o.Refs {
		if r.Label == label {
			out = append(out, r.Target)
		}
	}
	return out
}

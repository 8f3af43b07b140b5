package oem

import "strings"

// Mask is a read-only view of a graph with some references left out: every
// reference carrying one of the hidden labels, and every reference to one of
// the hidden objects. The graph itself is untouched — a frozen graph shared
// by many readers can be read under a different mask by each of them. The
// mediator uses it to evaluate a query that names only some concepts on the
// full fused epoch: the link edges and reconciled atoms the other concepts'
// sources supplied are hidden instead of re-fusing the world without them.
//
// The hidden objects are a Bitset over the oid table of the graph the mask
// was made for, so hiding an object is one bit test. A nil *Mask hides
// nothing. A Mask is immutable once built and may be shared; it keeps
// (never copies or writes) the set it is given. Its identity matters: a
// frozen graph memoizes the postings of existence tests per mask pointer
// (see Posting), so a caller evaluating repeatedly under one view should
// build its mask once.
type Mask struct {
	labels  []string // folded with FoldLabel
	objects Bitset
}

// NewMask returns the mask hiding references under the given labels (matched
// like path steps, under Unicode case folding) and references to any object
// whose oid is in objects.
func NewMask(labels []string, objects Bitset) *Mask {
	m := &Mask{labels: make([]string, len(labels)), objects: objects}
	for i, l := range labels {
		m.labels[i] = FoldLabel(l)
	}
	return m
}

// Hides reports whether the view leaves r out.
func (m *Mask) Hides(r Ref) bool {
	if m == nil {
		return false
	}
	for _, l := range m.labels {
		// l is canonical under FoldLabel, so EqualFold(x, l) holds exactly
		// when FoldLabel(x) == l.
		if strings.EqualFold(r.Label, l) {
			return true
		}
	}
	return m.objects.Has(int(r.Target))
}

// HidesLabel reports whether every reference under the label (already folded
// with FoldLabel) is left out.
func (m *Mask) HidesLabel(folded string) bool {
	if m == nil {
		return false
	}
	for _, l := range m.labels {
		if l == folded {
			return true
		}
	}
	return false
}

// HidesObject reports whether references to id are left out.
func (m *Mask) HidesObject(id OID) bool {
	return m != nil && m.objects.Has(int(id))
}

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
// A nil *Mask hides nothing. A Mask is immutable once built and may be
// shared; it keeps (never copies or writes) the object sets it is given.
type Mask struct {
	labels  []string // folded with FoldLabel
	objects []map[OID]struct{}
}

// NewMask returns the mask hiding references under the given labels (matched
// like path steps, under Unicode case folding) and references to any object
// in one of the given sets.
func NewMask(labels []string, objects ...map[OID]struct{}) *Mask {
	m := &Mask{labels: make([]string, len(labels))}
	for i, l := range labels {
		m.labels[i] = FoldLabel(l)
	}
	for _, set := range objects {
		if len(set) > 0 {
			m.objects = append(m.objects, set)
		}
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
	return m.HidesObject(r.Target)
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
	if m == nil {
		return false
	}
	for _, set := range m.objects {
		if _, ok := set[id]; ok {
			return true
		}
	}
	return false
}

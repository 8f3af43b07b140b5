package oem

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// This file implements the textual OEM notation of the paper's Figure 3.
//
// Each line shows label, object oid, object type, and (for atoms) the object
// value:
//
//	LocusLink &1 complex
//	  LocusID &2 integer 1234
//	  Organism &3 string "Homo sapiens"
//	  Links &7 complex
//	    GO &8 url "http://www.geneontology.org/GO:0005515"
//
// "If the object is complex, and has not been described earlier, subsequent
// indented lines describe its object references" — so the first occurrence
// of a complex oid expands its children; later occurrences print only the
// reference line. That makes the format a faithful, round-trippable
// serialization of shared (DAG/cyclic) structure.

const indentUnit = "  "

// EncodeText writes the subgraphs reachable from the graph's roots in
// Figure 3 notation. Roots are emitted in registration order; each root line
// uses the root's name as its label.
func EncodeText(w io.Writer, g *Graph) error {
	roots := g.Roots()
	objects, done := g.readObjects()
	t := textWalker{objects: objects}
	var b []byte
	var err error
	for _, r := range roots {
		if b, err = t.object(b, r.Name, r.OID, 0); err != nil {
			break
		}
	}
	done()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// EncodeTextFrom writes a single subgraph rooted at id, labelling the root
// line with label.
func EncodeTextFrom(w io.Writer, g *Graph, label string, id OID) error {
	b, err := AppendText(nil, g, label, id)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// TextString renders a subgraph as a string; convenience over AppendText.
// On a reference to a missing object the text stops before that line.
func TextString(g *Graph, label string, id OID) string {
	b, _ := AppendText(nil, g, label, id)
	return string(b)
}

// AppendText appends the Figure 3 text of the subgraph rooted at id, its
// root line labelled label, to dst and returns the extended slice. A
// reference to an object g does not hold is an error; the slice returned
// with it ends before the line that could not be written.
func AppendText(dst []byte, g *Graph, label string, id OID) ([]byte, error) {
	objects, done := g.readObjects()
	defer done()
	t := textWalker{objects: objects}
	return t.object(dst, label, id, 0)
}

// textWalker renders one Figure 3 text: seen holds the complex objects
// already expanded, whose later occurrences print only their line.
type textWalker struct {
	objects map[OID]*Object
	seen    oidSet
}

func (t *textWalker) object(b []byte, label string, id OID, depth int) ([]byte, error) {
	o := t.objects[id]
	if o == nil {
		return b, fmt.Errorf("oem: encode: no object %v", id)
	}
	b = appendLine(b, depth, label, o.ID, o)
	if o.Kind != KindComplex || t.seen.has(id) {
		return b, nil
	}
	t.seen.add(id)
	for _, r := range o.Refs {
		var err error
		if b, err = t.object(b, r.Label, r.Target, depth+1); err != nil {
			return b, err
		}
	}
	return b, nil
}

// appendLine is the one line writer of both text forms: indent, label, the
// oid (elided when 0), the kind and, for an atom, its value.
func appendLine(b []byte, depth int, label string, id OID, o *Object) []byte {
	b = appendLabel(appendIndent(b, depth), label)
	if id != 0 {
		b = append(b, " &"...)
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	b = append(append(b, ' '), o.Kind.String()...)
	if o.Kind != KindComplex {
		b = appendValue(append(b, ' '), o)
	}
	return append(b, '\n')
}

func appendIndent(b []byte, depth int) []byte {
	for i := 0; i < depth; i++ {
		b = append(b, indentUnit...)
	}
	return b
}

// appendValue appends an atom's value as the text forms show it: what
// AtomString gives, except that a gif is its base64 payload.
func appendValue(b []byte, o *Object) []byte {
	switch o.Kind {
	case KindInt:
		return strconv.AppendInt(b, o.Int, 10)
	case KindReal:
		return strconv.AppendFloat(b, o.Real, 'g', -1, 64)
	case KindString, KindURL:
		return appendQuote(b, o.Str)
	case KindBool:
		return strconv.AppendBool(b, o.Bool)
	case KindGif:
		return base64.StdEncoding.AppendEncode(b, o.Raw)
	}
	return b
}

// appendQuote is strconv.AppendQuote with a fast path for the common case,
// printable ASCII with nothing to escape, which Quote copies verbatim.
func appendQuote(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendLabel appends a reference label: "_" for the empty one, quoted when
// it holds a separator the line format splits on.
func appendLabel(b []byte, label string) []byte {
	if label == "" {
		return append(b, '_')
	}
	for i := 0; i < len(label); i++ {
		switch label[i] {
		case ' ', '\t', '\n', '&':
			return strconv.AppendQuote(b, label)
		}
	}
	return append(b, label...)
}

// oidSet is a set of oids as a bitmap. Graphs number their objects densely
// from 1, so it costs a bit per object up to the highest oid it holds.
type oidSet []uint64

func (s oidSet) has(id OID) bool {
	w := id >> 6
	return w < OID(len(s)) && s[w]&(1<<(id&63)) != 0
}

func (s *oidSet) add(id OID) {
	w := int(id >> 6)
	if w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	(*s)[w] |= 1 << (id & 63)
}

func (s oidSet) remove(id OID) {
	if w := id >> 6; w < OID(len(s)) {
		s[w] &^= 1 << (id & 63)
	}
}

// CanonicalText renders the subgraph rooted at id in a form that depends
// only on labels and values: oids are elided and sibling references are
// sorted by their rendered text. Two subgraphs carrying the same data
// render identically regardless of oid assignment or reference order, so
// equality of CanonicalText is set-semantics equality — the right notion
// for comparing query answers produced by different execution paths (OEM
// defines a complex object's value as a *set* of references). Shared
// substructure is expanded at every occurrence; a per-path guard renders a
// back-edge as "<cycle>".
func CanonicalText(g *Graph, label string, id OID) string {
	objects, done := g.readObjects()
	defer done()
	c := canonicalWalker{objects: objects}
	return string(c.object(nil, label, id, 0))
}

// canonicalWalker renders one CanonicalText: onPath holds the complex
// objects between the root and the line being written.
type canonicalWalker struct {
	objects map[OID]*Object
	onPath  oidSet
}

func (c *canonicalWalker) object(b []byte, label string, id OID, depth int) []byte {
	o := c.objects[id]
	switch {
	case o == nil:
		return append(appendLabel(appendIndent(b, depth), label), " <missing>\n"...)
	case c.onPath.has(id):
		return append(appendLabel(appendIndent(b, depth), label), " <cycle>\n"...)
	}
	b = appendLine(b, depth, label, 0, o)
	if o.Kind != KindComplex {
		return b
	}
	c.onPath.add(id)
	children := make([][]byte, len(o.Refs))
	for i, r := range o.Refs {
		children[i] = c.object(nil, r.Label, r.Target, depth+1)
	}
	c.onPath.remove(id)
	slices.SortFunc(children, bytes.Compare)
	for _, child := range children {
		b = append(b, child...)
	}
	return b
}

// DecodeText parses Figure 3 notation into a fresh graph, preserving the
// oids that appear in the text. Every top-level (unindented) object becomes
// a root named by its label.
func DecodeText(r io.Reader) (*Graph, error) {
	g := NewGraph()
	type frame struct {
		id    OID
		depth int
	}
	var stack []frame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	defined := make(map[OID]bool)
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		if strings.TrimSpace(raw) == "" {
			continue
		}
		depth, rest, err := measureIndent(raw)
		if err != nil {
			return nil, fmt.Errorf("oem: decode line %d: %v", lineNo, err)
		}
		label, id, kind, valTok, err := parseLine(rest)
		if err != nil {
			return nil, fmt.Errorf("oem: decode line %d: %v", lineNo, err)
		}
		// Pop frames deeper or equal to current depth.
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if depth > 0 && len(stack) == 0 {
			return nil, fmt.Errorf("oem: decode line %d: indented line without parent", lineNo)
		}
		if depth > 0 && stack[len(stack)-1].depth != depth-1 {
			return nil, fmt.Errorf("oem: decode line %d: indentation jumps from %d to %d", lineNo, stack[len(stack)-1].depth, depth)
		}

		existing := g.getRaw(id)
		if existing != nil {
			// Re-reference of an already-seen object; kinds must agree.
			if existing.Kind != kind {
				return nil, fmt.Errorf("oem: decode line %d: %v re-declared as %v (was %v)", lineNo, id, kind, existing.Kind)
			}
		} else {
			o := &Object{ID: id, Kind: kind}
			switch kind {
			case KindInt:
				v, err := strconv.ParseInt(valTok, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("oem: decode line %d: bad integer %q", lineNo, valTok)
				}
				o.Int = v
			case KindReal:
				v, err := strconv.ParseFloat(valTok, 64)
				if err != nil {
					return nil, fmt.Errorf("oem: decode line %d: bad real %q", lineNo, valTok)
				}
				o.Real = v
			case KindString, KindURL:
				v, err := strconv.Unquote(valTok)
				if err != nil {
					return nil, fmt.Errorf("oem: decode line %d: bad string %q", lineNo, valTok)
				}
				o.Str = v
			case KindBool:
				v, err := strconv.ParseBool(valTok)
				if err != nil {
					return nil, fmt.Errorf("oem: decode line %d: bad boolean %q", lineNo, valTok)
				}
				o.Bool = v
			case KindGif:
				raw, err := base64.StdEncoding.DecodeString(valTok)
				if err != nil {
					return nil, fmt.Errorf("oem: decode line %d: bad gif payload", lineNo)
				}
				o.Raw = raw
			case KindComplex:
				if valTok != "" {
					return nil, fmt.Errorf("oem: decode line %d: complex object with inline value", lineNo)
				}
			}
			g.putRaw(o)
		}

		if depth == 0 {
			g.SetRoot(label, id)
		} else {
			parent := stack[len(stack)-1].id
			if err := g.AddRef(parent, label, id); err != nil {
				return nil, fmt.Errorf("oem: decode line %d: %v", lineNo, err)
			}
		}
		if kind == KindComplex {
			// Only the first (defining) occurrence opens a scope for
			// children; repeated references must not re-open it, otherwise
			// children would be appended twice.
			if !defined[id] {
				defined[id] = true
				stack = append(stack, frame{id: id, depth: depth})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// getRaw/putRaw bypass allocation so the decoder can preserve textual oids.
func (g *Graph) getRaw(id OID) *Object {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.objects[id]
}

func (g *Graph) putRaw(o *Object) {
	g.mustMutable("putRaw")
	g.mu.Lock()
	defer g.mu.Unlock()
	g.objects[o.ID] = o
	if o.ID >= g.next {
		g.next = o.ID + 1
	}
	g.invalidateIndexes(o.ID)
}

func measureIndent(line string) (depth int, rest string, err error) {
	i := 0
	for i < len(line) {
		if strings.HasPrefix(line[i:], indentUnit) {
			depth++
			i += len(indentUnit)
			continue
		}
		if line[i] == '\t' {
			depth++
			i++
			continue
		}
		if line[i] == ' ' {
			return 0, "", fmt.Errorf("odd indentation (lone space)")
		}
		break
	}
	return depth, line[i:], nil
}

// parseLine splits `label &oid kind [value]`. Labels may be quoted.
func parseLine(s string) (label string, id OID, kind Kind, val string, err error) {
	s = strings.TrimSpace(s)
	// Label (possibly quoted).
	if strings.HasPrefix(s, `"`) {
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '"' && s[i-1] != '\\' {
				end = i
				break
			}
		}
		if end < 0 {
			return "", 0, 0, "", fmt.Errorf("unterminated quoted label")
		}
		label, err = strconv.Unquote(s[:end+1])
		if err != nil {
			return "", 0, 0, "", fmt.Errorf("bad quoted label: %v", err)
		}
		s = strings.TrimSpace(s[end+1:])
	} else {
		sp := strings.IndexAny(s, " \t")
		if sp < 0 {
			return "", 0, 0, "", fmt.Errorf("missing oid")
		}
		label = s[:sp]
		s = strings.TrimSpace(s[sp:])
	}
	if !strings.HasPrefix(s, "&") {
		return "", 0, 0, "", fmt.Errorf("expected &oid, got %q", s)
	}
	sp := strings.IndexAny(s, " \t")
	var oidTok string
	if sp < 0 {
		oidTok, s = s, ""
	} else {
		oidTok, s = s[:sp], strings.TrimSpace(s[sp:])
	}
	n, err := strconv.ParseUint(oidTok[1:], 10, 64)
	if err != nil || n == 0 {
		return "", 0, 0, "", fmt.Errorf("bad oid %q", oidTok)
	}
	id = OID(n)
	if s == "" {
		return "", 0, 0, "", fmt.Errorf("missing kind")
	}
	sp = strings.IndexAny(s, " \t")
	var kindTok string
	if sp < 0 {
		kindTok, s = s, ""
	} else {
		kindTok, s = s[:sp], strings.TrimSpace(s[sp:])
	}
	kind, err = ParseKind(kindTok)
	if err != nil {
		return "", 0, 0, "", err
	}
	return label, id, kind, s, nil
}

// SortRefs orders a complex object's references by label then target oid.
// Wrappers use it to make OML exports deterministic.
func (g *Graph) SortRefs(id OID) {
	g.mustMutable("SortRefs")
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.objects[id]
	if o == nil || o.Kind != KindComplex {
		return
	}
	sort.SliceStable(o.Refs, func(i, j int) bool {
		if o.Refs[i].Label != o.Refs[j].Label {
			return o.Refs[i].Label < o.Refs[j].Label
		}
		return o.Refs[i].Target < o.Refs[j].Target
	})
	g.invalidateIndexes(id)
}

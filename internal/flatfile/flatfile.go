// Package flatfile implements an SRS-style indexed flat-file record library.
//
// SRS (Etzold & Argos 1993) — one of the hypertext-navigation systems the
// ANNODA paper surveys — is "an indexing and retrieval tool for flat file
// data libraries": biological databanks distributed as text files made of
// tagged-field records. ANNODA's GO and OMIM sources store their data in
// exactly such files; their wrappers parse them through this package.
//
// A Library holds ordered Records; each Record is an ordered multiset of
// (Tag, Value) fields. Dialects configure how records are delimited:
// OBO-style stanzas ("[Term]" headers) and EMBL/OMIM-style terminated
// records ("//" lines) are both supported. Tag indexes provide exact-match
// retrieval, the lookup SRS exposes.
package flatfile

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Field is one tagged line of a record.
type Field struct {
	Tag   string
	Value string
}

// Record is an ordered list of fields. Tags may repeat (e.g. multiple
// "is_a" parents in an OBO term).
type Record struct {
	Fields []Field
}

// First returns the value of the first field with the given tag, or "".
func (r *Record) First(tag string) string {
	for _, f := range r.Fields {
		if strings.EqualFold(f.Tag, tag) {
			return f.Value
		}
	}
	return ""
}

// All returns the values of every field with the given tag, in order.
func (r *Record) All(tag string) []string {
	var out []string
	for _, f := range r.Fields {
		if strings.EqualFold(f.Tag, tag) {
			out = append(out, f.Value)
		}
	}
	return out
}

// Add appends a field.
func (r *Record) Add(tag, value string) {
	r.Fields = append(r.Fields, Field{Tag: tag, Value: value})
}

// Dialect configures record delimiting and the tag separator.
type Dialect struct {
	// Name identifies the dialect in errors.
	Name string
	// StanzaStart, when non-empty, begins a new record at any line equal to
	// it (OBO's "[Term]"). Lines before the first stanza are ignored
	// (headers).
	StanzaStart string
	// Terminator, when non-empty, ends the current record at any line equal
	// to it (EMBL/OMIM's "//").
	Terminator string
	// Sep separates tag from value; defaults to ":".
	Sep string
}

// OBO is the Gene-Ontology-style stanza dialect.
var OBO = Dialect{Name: "obo", StanzaStart: "[Term]", Sep: ":"}

// EMBL is the terminator-delimited dialect used by the OMIM-style records.
var EMBL = Dialect{Name: "embl", Terminator: "//", Sep: ":"}

func (d Dialect) sep() string {
	if d.Sep == "" {
		return ":"
	}
	return d.Sep
}

// Library is an in-memory flat-file databank with optional tag indexes.
// It is safe for concurrent readers; BuildIndex takes a write lock.
type Library struct {
	mu      sync.RWMutex
	records []*Record
	// exact index: tag(lower) -> value(lower) -> sorted record positions
	exact map[string]map[string][]int
}

// Parse reads a whole flat file into a new library.
func Parse(r io.Reader, d Dialect) (*Library, error) {
	lib := &Library{exact: make(map[string]map[string][]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var cur *Record
	inBody := d.StanzaStart == "" // terminator dialects start in-body
	lineNo := 0
	flush := func() {
		if cur != nil && len(cur.Fields) > 0 {
			lib.records = append(lib.records, cur)
		}
		cur = nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t\r")
		if line == "" {
			continue
		}
		if d.StanzaStart != "" && line == d.StanzaStart {
			flush()
			cur = &Record{}
			inBody = true
			continue
		}
		if d.Terminator != "" && line == d.Terminator {
			flush()
			continue
		}
		if !inBody {
			continue // header material before the first stanza
		}
		if strings.HasPrefix(line, "!") || strings.HasPrefix(line, "#") {
			continue // comments
		}
		idx := strings.Index(line, d.sep())
		if idx <= 0 {
			return nil, fmt.Errorf("flatfile(%s): line %d: no %q separator in %q", d.Name, lineNo, d.sep(), line)
		}
		if cur == nil {
			cur = &Record{}
		}
		tag := strings.TrimSpace(line[:idx])
		val := strings.TrimSpace(line[idx+len(d.sep()):])
		cur.Add(tag, val)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return lib, nil
}

// Get returns the record at position i, or nil if out of range.
func (l *Library) Get(i int) *Record {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i < 0 || i >= len(l.records) {
		return nil
	}
	return l.records[i]
}

// BuildIndex creates (or rebuilds) an exact-match index on a tag.
func (l *Library) BuildIndex(tag string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lt := strings.ToLower(tag)
	byVal := make(map[string][]int)
	for pos, r := range l.records {
		for _, v := range r.All(tag) {
			lv := strings.ToLower(v)
			byVal[lv] = append(byVal[lv], pos)
		}
	}
	l.exact[lt] = byVal
}

// Find returns the positions of records having a field tag whose value
// equals value (case-insensitive). It uses the exact index when present and
// scans otherwise.
func (l *Library) Find(tag, value string) []int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	lt, lv := strings.ToLower(tag), strings.ToLower(value)
	if byVal, ok := l.exact[lt]; ok {
		return append([]int(nil), byVal[lv]...)
	}
	var out []int
	for pos, r := range l.records {
		for _, v := range r.All(tag) {
			if strings.ToLower(v) == lv {
				out = append(out, pos)
				break
			}
		}
	}
	return out
}

// Scan visits every record in order; return false to stop.
func (l *Library) Scan(visit func(int, *Record) bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i, r := range l.records {
		if !visit(i, r) {
			return
		}
	}
}

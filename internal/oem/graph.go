package oem

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// Graph is an OEM database: a set of objects addressed by oid plus a list of
// named roots (entry points). ANNODA keeps one Graph per wrapped source (the
// ANNODA-OML local models), one for the global model (ANNODA-GML), and one
// per query answer.
//
// A Graph is safe for concurrent readers. Mutating methods (New*, AddRef,
// SetRoot, Import) take the write lock; the mediator only mutates answer
// graphs it owns exclusively, so source graphs can be queried in parallel.
type Graph struct {
	mu sync.RWMutex
	// objs is the object table, indexed by oid: objs[id] is the object &id,
	// or nil when id was freed (RemoveSubtree) or never handed out. Every
	// graph has objs[0], always nil — oid 0 is reserved — so len(objs) is
	// the first oid never handed out. A lookup is a bounds check and a
	// load, not a hash.
	objs []*Object
	live int // the non-nil entries of objs
	// free is where the search for a freed oid to reuse starts: at least
	// 1, and no oid below it is free (see nextOID).
	free  OID
	roots []Root

	// labels is a lazily built per-object label index: case-folded label ->
	// ref targets in insertion order, for complex objects with at least
	// labelIndexMinRefs references. It turns the hot label-traversal step of
	// query evaluation over a wide object (a fused gene, the root) into a map
	// hit instead of an O(refs) scan; narrow objects are scanned — a handful
	// of comparisons costs no more than hashing the label, and a map per
	// object is what the index's memory went to. It is maintained
	// incrementally: a mutation records the touched oid in
	// labelsDirty, and the next index read repairs only those entries (the
	// published map is cloned, never edited, so handles stay immutable).
	// A mutation burst touching more than a quarter of the graph drops
	// the index instead — a full rebuild is cheaper than patching.
	labels      map[OID]map[string][]OID
	labelsDirty map[OID]bool

	// slab is the current object allocation chunk: alloc carves objects out
	// of it so building a large graph (answer import, fusion) costs one
	// allocation per chunk instead of one per object. Chunks grow from 8 to
	// slabMax so tiny graphs stay tiny.
	slab     []Object
	slabSize int

	// frozen marks the graph immutable (see Freeze): read accessors skip
	// the mutex, mutators panic. One-way.
	frozen atomic.Bool

	// postings is a frozen graph's memo of derived postings (PostingKey ->
	// value, see postings.go); numPostings counts its entries.
	postings    sync.Map
	numPostings atomic.Int32
}

// slabMax bounds the object allocation chunk size.
const slabMax = 512

// Root is a named entry point into the graph, e.g. ("LocusLink", &1) or the
// "answer" object of a query result.
type Root struct {
	Name string
	OID  OID
}

// NewGraph returns an empty graph whose first allocated oid will be &1.
func NewGraph() *Graph {
	return &Graph{objs: make([]*Object, 1), free: 1}
}

// Len returns the number of objects in the graph.
func (g *Graph) Len() int {
	if g.frozen.Load() {
		return g.live
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.live
}

// objectAt is the table lookup: the object at id in objs, or nil.
func objectAt(objs []*Object, id OID) *Object {
	if id < OID(len(objs)) {
		return objs[id]
	}
	return nil
}

// get looks id up. The caller holds g.mu or g is frozen.
func (g *Graph) get(id OID) *Object { return objectAt(g.objs, id) }

// put stores o at its oid, growing the table as needed — by doubling, so
// a graph built one object at a time copies its table about once over.
// The caller holds g.mu for writing.
func (g *Graph) put(o *Object) {
	if n := int(o.ID) + 1; n > len(g.objs) {
		if n > cap(g.objs) {
			grown := make([]*Object, len(g.objs), max(2*cap(g.objs), n, 16))
			copy(grown, g.objs)
			g.objs = grown
		}
		old := len(g.objs)
		g.objs = g.objs[:n]
		clear(g.objs[old:])
	}
	if g.objs[o.ID] == nil {
		g.live++
	}
	g.objs[o.ID] = o
}

// del frees id for reuse. The caller holds g.mu for writing.
func (g *Graph) del(id OID) {
	if g.get(id) == nil {
		return
	}
	g.objs[id] = nil
	g.live--
	g.free = min(g.free, id)
}

// nextOID is the oid alloc hands out next: the lowest freed one while any
// is free, else the end of the table. Reuse is what bounds the table under
// churn — a delta patch frees the oids of what it re-fuses and allocates as
// many again — to the most objects the graph ever held at once, and lowest
// first makes the choice a function of the set of holes alone, so a decoded
// copy of a graph allocates exactly what the original would.
func (g *Graph) nextOID() OID {
	if g.live == len(g.objs)-1 {
		return OID(len(g.objs))
	}
	for g.objs[g.free] != nil {
		g.free++
	}
	return g.free
}

// Get returns the object with the given oid, or nil if absent. On a frozen
// graph the lookup is lock-free — this is the single hottest operation of
// concurrent plan evaluation over a shared snapshot, and a read lock here
// would put every evaluating goroutine on one contended cache line.
func (g *Graph) Get(id OID) *Object {
	if g.frozen.Load() {
		return g.get(id)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.get(id)
}

// readObjects hands a whole-graph walk the object table and the function
// that ends the walk: a frozen graph is read without its lock, a mutable one
// under one read lock for the walk rather than one per object.
func (g *Graph) readObjects() ([]*Object, func()) {
	if g.frozen.Load() {
		return g.objs, func() {}
	}
	g.mu.RLock()
	return g.objs, g.mu.RUnlock
}

// KindOf returns the kind of the object with the given oid, or KindInvalid.
func (g *Graph) KindOf(id OID) Kind {
	if o := g.Get(id); o != nil {
		return o.Kind
	}
	return KindInvalid
}

// OIDs returns all oids in ascending order. Intended for deterministic
// iteration in tests and codecs.
func (g *Graph) OIDs() []OID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]OID, 0, g.live)
	for id, o := range g.objs {
		if o != nil {
			out = append(out, OID(id))
		}
	}
	return out
}

func (g *Graph) alloc(kind Kind) *Object {
	g.mustMutable("allocate")
	if len(g.slab) == 0 {
		if g.slabSize < slabMax {
			g.slabSize = g.slabSize*2 + 8
			if g.slabSize > slabMax {
				g.slabSize = slabMax
			}
		}
		g.slab = make([]Object, g.slabSize)
	}
	o := &g.slab[0]
	g.slab = g.slab[1:]
	o.ID, o.Kind = g.nextOID(), kind
	g.put(o)
	g.invalidateIndexes(o.ID)
	return o
}

// labelIndexMinRefs is the fan-out from which an object gets a label-index
// entry. In a 1k-gene fused graph 20,256 of 21,335 complex objects have at
// most eight references (terms, annotations, diseases, proteins), and
// indexing them was 14.6 MB of a 34 MB epoch.
const labelIndexMinRefs = 9

// labelsRebuildSlack: when more than objects/4 (plus this slack) entries
// are dirty, drop the label index instead of patching it entry by entry.
const labelsRebuildSlack = 64

// invalidateIndexes notes that the object with the given oid changed
// shape; every mutation must call it (directly or via alloc) before
// releasing the write lock. The label index is repaired lazily from the
// dirty set.
func (g *Graph) invalidateIndexes(id OID) {
	if g.labels == nil {
		return
	}
	if g.labelsDirty == nil {
		g.labelsDirty = make(map[OID]bool)
	}
	g.labelsDirty[id] = true
	if len(g.labelsDirty) > g.live/4+labelsRebuildSlack {
		g.labels, g.labelsDirty = nil, nil
	}
}

// repairLabelsLocked brings the label index up to date with the dirty set
// by cloning the published top-level map and recomputing only the dirty
// objects' entries. Handles taken before the repair keep observing the old
// (immutable) map. g.mu must be held for writing.
func (g *Graph) repairLabelsLocked() {
	if g.labels == nil || len(g.labelsDirty) == 0 {
		return
	}
	nl := make(map[OID]map[string][]OID, len(g.labels)+len(g.labelsDirty))
	for id, m := range g.labels {
		nl[id] = m
	}
	fold := make(map[string]string)
	for id := range g.labelsDirty {
		if m := labelEntry(g.get(id), fold); m != nil {
			nl[id] = m
		} else {
			delete(nl, id)
		}
	}
	g.labels, g.labelsDirty = nl, nil
}

// NewInt creates an integer atom and returns its oid.
func (g *Graph) NewInt(v int64) OID {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.alloc(KindInt)
	o.Int = v
	return o.ID
}

// NewReal creates a real atom and returns its oid.
func (g *Graph) NewReal(v float64) OID {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.alloc(KindReal)
	o.Real = v
	return o.ID
}

// NewString creates a string atom and returns its oid.
func (g *Graph) NewString(v string) OID {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.alloc(KindString)
	o.Str = v
	return o.ID
}

// NewBool creates a boolean atom and returns its oid.
func (g *Graph) NewBool(v bool) OID {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.alloc(KindBool)
	o.Bool = v
	return o.ID
}

// NewURL creates a url atom (a web-link) and returns its oid.
func (g *Graph) NewURL(v string) OID {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.alloc(KindURL)
	o.Str = v
	return o.ID
}

// NewGif creates a gif atom holding an opaque binary payload. The payload is
// copied.
func (g *Graph) NewGif(raw []byte) OID {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.alloc(KindGif)
	o.Raw = append([]byte(nil), raw...)
	return o.ID
}

// NewAtom creates an atom from an untyped Go value (int, int64, float64,
// string, bool, []byte). Strings beginning with "http://" or "https://"
// become url atoms.
func (g *Graph) NewAtom(v any) (OID, error) {
	switch x := v.(type) {
	case int:
		return g.NewInt(int64(x)), nil
	case int64:
		return g.NewInt(x), nil
	case float64:
		return g.NewReal(x), nil
	case string:
		if isURLString(x) {
			return g.NewURL(x), nil
		}
		return g.NewString(x), nil
	case bool:
		return g.NewBool(x), nil
	case []byte:
		return g.NewGif(x), nil
	}
	return 0, fmt.Errorf("oem: cannot make atom from %T", v)
}

func isURLString(s string) bool {
	return len(s) > 7 && (s[:7] == "http://" || (len(s) > 8 && s[:8] == "https://"))
}

// NewComplex creates a complex object with the given references (which may
// be empty) and returns its oid. Referenced oids need not exist yet; call
// Validate to check integrity once construction finishes.
func (g *Graph) NewComplex(refs ...Ref) OID {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.alloc(KindComplex)
	o.Refs = append(o.Refs, refs...)
	return o.ID
}

// AddRef appends a (label, target) reference to an existing complex object.
func (g *Graph) AddRef(parent OID, label string, target OID) error {
	g.mustMutable("AddRef")
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.get(parent)
	if o == nil {
		return fmt.Errorf("oem: AddRef: no object %v", parent)
	}
	if o.Kind != KindComplex {
		return fmt.Errorf("oem: AddRef: %v is %v, not complex", parent, o.Kind)
	}
	o.Refs = append(o.Refs, Ref{Label: label, Target: target})
	g.invalidateIndexes(parent)
	return nil
}

// SetRefs replaces a complex object's references wholesale, taking
// ownership of refs. Bulk builders (query-answer import, fusion) size the
// slice once instead of paying per-AddRef growth and locking.
func (g *Graph) SetRefs(parent OID, refs []Ref) error {
	g.mustMutable("SetRefs")
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.get(parent)
	if o == nil {
		return fmt.Errorf("oem: SetRefs: no object %v", parent)
	}
	if o.Kind != KindComplex {
		return fmt.Errorf("oem: SetRefs: %v is %v, not complex", parent, o.Kind)
	}
	o.Refs = refs
	g.invalidateIndexes(parent)
	return nil
}

// RemoveRef deletes the first (label, target) reference from the parent
// object and reports whether one was removed. Snapshot patching uses it to
// detach a single stale edge without disturbing siblings under the same
// label.
func (g *Graph) RemoveRef(parent OID, label string, target OID) bool {
	g.mustMutable("RemoveRef")
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.get(parent)
	if o == nil || o.Kind != KindComplex {
		return false
	}
	for i, r := range o.Refs {
		if r.Label == label && r.Target == target {
			o.Refs = append(o.Refs[:i], o.Refs[i+1:]...)
			g.invalidateIndexes(parent)
			return true
		}
	}
	return false
}

// RemoveSubtree deletes the object with the given oid and everything
// reachable from it, returning how many objects were removed. The caller
// must guarantee that no object outside the subtree references into it —
// the contract holds for entity subtrees created by separate Import or
// TranslateEntity calls, which never share structure with one another.
// In-edges into the subtree root itself must be detached (RemoveRef) first.
func (g *Graph) RemoveSubtree(id OID) int {
	g.mustMutable("RemoveSubtree")
	g.mu.Lock()
	defer g.mu.Unlock()
	removed := 0
	stack := []OID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		o := g.get(cur)
		if o == nil {
			continue // already removed (shared within the subtree) or absent
		}
		g.del(cur)
		g.invalidateIndexes(cur)
		removed++
		for _, r := range o.Refs {
			stack = append(stack, r.Target)
		}
	}
	return removed
}

// RemoveRefs deletes every reference under the given label from the parent
// object and returns how many were removed.
func (g *Graph) RemoveRefs(parent OID, label string) int {
	g.mustMutable("RemoveRefs")
	g.mu.Lock()
	defer g.mu.Unlock()
	o := g.get(parent)
	if o == nil || o.Kind != KindComplex {
		return 0
	}
	kept := o.Refs[:0]
	removed := 0
	for _, r := range o.Refs {
		if r.Label == label {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	o.Refs = kept
	if removed > 0 {
		g.invalidateIndexes(parent)
	}
	return removed
}

// SetRoot registers (or replaces) a named root.
func (g *Graph) SetRoot(name string, id OID) {
	g.mustMutable("SetRoot")
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.roots {
		if g.roots[i].Name == name {
			g.roots[i].OID = id
			return
		}
	}
	g.roots = append(g.roots, Root{Name: name, OID: id})
}

// Root returns the oid registered under name, or 0 if absent.
func (g *Graph) Root(name string) OID {
	if !g.frozen.Load() {
		g.mu.RLock()
		defer g.mu.RUnlock()
	}
	for _, r := range g.roots {
		if r.Name == name {
			return r.OID
		}
	}
	return 0
}

// RootMatch returns the oid registered under a name equal to name under
// Unicode case folding, or 0 if absent. Query evaluation resolves path bases
// through it — unlike Roots it does not copy the root list.
func (g *Graph) RootMatch(name string) OID {
	if !g.frozen.Load() {
		g.mu.RLock()
		defer g.mu.RUnlock()
	}
	for _, r := range g.roots {
		if strings.EqualFold(r.Name, name) {
			return r.OID
		}
	}
	return 0
}

// Children returns the target oids of edges labelled label leaving id.
func (g *Graph) Children(id OID, label string) []OID {
	return g.Get(id).RefTargets(label)
}

// FoldLabel returns the canonical simple-case-fold of an edge label — the
// key space of the label index. Two labels are equal under
// strings.EqualFold exactly when their FoldLabel forms are byte-identical,
// so indexed lookups, linear ref scans, and root matching all share one
// folding semantics (Greek final sigma, Kelvin sign, and friends included).
// Callers that look labels up repeatedly (compiled query plans) fold once
// and reuse the result. FoldLabel is idempotent.
func FoldLabel(label string) string {
	// Fast path: already canonical ASCII (no letters outside the orbit
	// minimum, which for ASCII is the upper-case letter).
	for i := 0; i < len(label); i++ {
		c := label[i]
		if c >= utf8.RuneSelf || ('a' <= c && c <= 'z') {
			return strings.Map(foldRune, label)
		}
	}
	return label
}

// foldRune maps a rune to the minimum of its unicode.SimpleFold orbit, the
// canonical representative of its case-fold equivalence class.
func foldRune(r rune) rune {
	for {
		next := unicode.SimpleFold(r)
		if next <= r {
			return next // wrapped around: next is the orbit minimum
		}
		r = next
	}
}

// LabelIndex is a read-only handle on a graph's built label index. The
// underlying map is immutable once published — mutations replace it rather
// than editing it — so a handle can be read without locking. It describes
// the graph as of when it was taken; evaluating a graph that is being
// concurrently mutated is not supported (and never was).
type LabelIndex struct {
	m map[OID]map[string][]OID
}

// Targets returns the ref targets of id under the canonical folded label.
// indexed is false when id has no entry — it is absent, atomic, or narrow
// enough that the caller scans its references instead.
func (ix LabelIndex) Targets(id OID, folded string) (targets []OID, indexed bool) {
	m, indexed := ix.m[id]
	return m[folded], indexed
}

// LabelIndex returns a lock-free handle on the label index, or ok=false
// when none is built. Hot traversal takes the handle once per evaluation
// (one RLock) instead of locking per edge; on a graph that never built an
// index (per-entity pushdown evaluation over a growing scratch graph) it
// returns false and the caller falls back to a ref scan — building an
// index under heavy construction would be quadratic in graph size. An
// index left stale by mutations (snapshot patching) is repaired first,
// touching only the dirty entries.
func (g *Graph) LabelIndex() (LabelIndex, bool) {
	if g.frozen.Load() {
		// No mutation can dirty a frozen graph's index; FreezeUnindexed
		// leaves none.
		return LabelIndex{m: g.labels}, g.labels != nil
	}
	g.mu.RLock()
	if g.labels == nil {
		g.mu.RUnlock()
		return LabelIndex{}, false
	}
	if len(g.labelsDirty) == 0 {
		ix := LabelIndex{m: g.labels}
		g.mu.RUnlock()
		return ix, true
	}
	g.mu.RUnlock()
	g.mu.Lock()
	g.repairLabelsLocked()
	ix := LabelIndex{m: g.labels}
	ok := g.labels != nil
	g.mu.Unlock()
	return ix, ok
}

// EnsureLabelIndex builds the label index if absent and repairs it if
// stale. Evaluators call it once before repeated traversal of a settled
// graph (a fused snapshot, a materialized source model); it is a no-op
// while the index is live and clean.
func (g *Graph) EnsureLabelIndex() {
	if g.frozen.Load() {
		return // built at Freeze time and permanently clean, or never wanted
	}
	g.mu.RLock()
	ready := g.labels != nil && len(g.labelsDirty) == 0
	g.mu.RUnlock()
	if ready {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.labels != nil {
		g.repairLabelsLocked()
		return
	}
	// Distinct label strings are folded exactly once (interned in fold),
	// so a graph with millions of edges over a small label vocabulary
	// allocates a handful of folded strings, not one per edge.
	fold := make(map[string]string)
	idx := make(map[OID]map[string][]OID)
	for id, o := range g.objs {
		if m := labelEntry(o, fold); m != nil {
			idx[OID(id)] = m
		}
	}
	g.labels, g.labelsDirty = idx, nil
}

// labelEntry builds o's label-index entry, or returns nil when o gets none
// (absent, atomic, or narrower than labelIndexMinRefs). fold interns the
// folded form of each distinct label across calls.
func labelEntry(o *Object, fold map[string]string) map[string][]OID {
	if o == nil || o.Kind != KindComplex || len(o.Refs) < labelIndexMinRefs {
		return nil
	}
	m := make(map[string][]OID, len(o.Refs))
	for _, r := range o.Refs {
		f, ok := fold[r.Label]
		if !ok {
			f = FoldLabel(r.Label)
			fold[r.Label] = f
		}
		m[f] = append(m[f], r.Target)
	}
	return m
}

// Child returns the first child under label, or 0.
func (g *Graph) Child(id OID, label string) OID {
	if ts := g.Children(id, label); len(ts) > 0 {
		return ts[0]
	}
	return 0
}

// StringUnder returns the string value of the first string/url child under
// label, or "".
func (g *Graph) StringUnder(id OID, label string) string {
	c := g.Get(g.Child(id, label))
	if c == nil {
		return ""
	}
	if c.Kind == KindString || c.Kind == KindURL {
		return c.Str
	}
	return ""
}

// IntUnder returns the integer value of the first integer child under label
// and whether one exists.
func (g *Graph) IntUnder(id OID, label string) (int64, bool) {
	c := g.Get(g.Child(id, label))
	if c == nil || c.Kind != KindInt {
		return 0, false
	}
	return c.Int, true
}

// Validate checks graph integrity: every reference targets an existing
// object and every root exists. It returns the first problem found.
func (g *Graph) Validate() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for i, o := range g.objs {
		if o == nil {
			continue
		}
		id := OID(i)
		if o.ID != id {
			return fmt.Errorf("oem: object stored at %v has ID %v", id, o.ID)
		}
		for _, r := range o.Refs {
			if g.get(r.Target) == nil {
				return fmt.Errorf("oem: dangling reference %v -%s-> %v", id, r.Label, r.Target)
			}
		}
		if o.Kind != KindComplex && len(o.Refs) > 0 {
			return fmt.Errorf("oem: atomic object %v has references", id)
		}
	}
	for _, r := range g.roots {
		if g.get(r.OID) == nil {
			return fmt.Errorf("oem: root %q -> %v does not exist", r.Name, r.OID)
		}
	}
	return nil
}

// Import copies the subgraph rooted at srcRoot in src into g, allocating
// fresh oids, and returns the oid of the copied root. Shared substructure is
// copied once (object identity within the imported subgraph is preserved).
// Cycles are handled.
func (g *Graph) Import(src *Graph, srcRoot OID) (OID, error) {
	return g.ImportShared(src, srcRoot, make(map[OID]OID))
}

// ImportShared is Import through a remap (src oid -> its copy in g) the
// caller holds across calls: an object already in the remap is referenced,
// not copied again, so substructure shared between separately imported
// subgraphs stays shared in g. Every object copied is added to the remap.
func (g *Graph) ImportShared(src *Graph, srcRoot OID, remap map[OID]OID) (OID, error) {
	if src == g {
		return srcRoot, nil
	}
	if !src.frozen.Load() {
		src.mu.RLock()
		defer src.mu.RUnlock()
	}
	g.mu.Lock()
	defer g.mu.Unlock()

	var walk func(OID) (OID, error)
	walk = func(id OID) (OID, error) {
		if mapped, ok := remap[id]; ok {
			return mapped, nil
		}
		so := src.get(id)
		if so == nil {
			return 0, fmt.Errorf("oem: Import: no object %v in source graph", id)
		}
		no := g.alloc(so.Kind)
		remap[id] = no.ID
		copyAtom(no, so)
		if so.Kind == KindComplex && len(so.Refs) > 0 {
			refs := make([]Ref, 0, len(so.Refs))
			for _, r := range so.Refs {
				t, err := walk(r.Target)
				if err != nil {
					return 0, err
				}
				refs = append(refs, Ref{Label: r.Label, Target: t})
			}
			no.Refs = refs
		}
		return no.ID, nil
	}
	return walk(srcRoot)
}

// copyAtom copies so's atomic payload into no (a gif's bytes are copied).
func copyAtom(no, so *Object) {
	switch so.Kind {
	case KindInt:
		no.Int = so.Int
	case KindReal:
		no.Real = so.Real
	case KindString, KindURL:
		no.Str = so.Str
	case KindBool:
		no.Bool = so.Bool
	case KindGif:
		no.Raw = append([]byte(nil), so.Raw...)
	}
}

// ImportRefs appends to the complex object parent one reference per entry
// of refs, in order: the entry's label, to a copy of the subgraph of src
// under the entry's target as seen under mask (nil hides nothing): a
// reference the mask hides is not copied and not followed, at any depth,
// while an entry's target itself is always copied. Built for query answers,
// it copies an object reached twice, from one entry or several, once, at
// its first visit, so copies take oids in the order one depth-first walk of
// the entries first reaches them. When origin is non-nil it gets copy ->
// target for each entry whose own walk made its target's copy (a target an
// earlier walk already copied gets none). It returns how many objects were
// copied.
//
// What it allocates grows with the answer, not with src: the remap is pages
// of copies allocated as the walk first touches them, under a directory of
// one pointer per page of src's oids, and reference lists are cut from
// shared chunks.
func (g *Graph) ImportRefs(parent OID, src *Graph, refs []Ref, mask *Mask, origin map[OID]OID) (int, error) {
	if src == g {
		return 0, fmt.Errorf("oem: ImportRefs: source and destination are one graph")
	}
	g.mustMutable("ImportRefs")
	if !src.frozen.Load() {
		src.mu.RLock()
		defer src.mu.RUnlock()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	po := g.get(parent)
	if po == nil || po.Kind != KindComplex {
		return 0, fmt.Errorf("oem: ImportRefs: %v is not a complex object", parent)
	}
	c := importWalk{g: g, src: src.objs, mask: mask, remap: make([]*remapPage, len(src.objs)>>remapShift+1)}
	out := slices.Grow(po.Refs, len(refs))
	for _, r := range refs {
		to := c.copyOf(r.Target)
		if to == 0 {
			var err error
			if to, err = c.walk(r.Target); err != nil {
				return 0, err
			}
			if origin != nil {
				origin[to] = r.Target
			}
		}
		out = append(out, Ref{Label: r.Label, Target: to})
	}
	po.Refs = out
	g.invalidateIndexes(parent)
	return c.copied, nil
}

// remapShift sets the remap's page size: 1<<remapShift oids of the source.
const remapShift = 8

// remapPage holds the copies of one page of source oids; 0 is "not copied".
type remapPage [1 << remapShift]OID

// importWalk is one ImportRefs: the graph copied into, the source table,
// the mask, the paged remap and the current reference-list chunk.
type importWalk struct {
	g      *Graph
	src    []*Object
	mask   *Mask
	remap  []*remapPage
	refs   []Ref
	chunk  int // the size of the last chunk refs was cut from
	copied int
}

func (c *importWalk) copyOf(id OID) OID {
	if p := id >> remapShift; p < OID(len(c.remap)) && c.remap[p] != nil {
		return c.remap[p][id&(1<<remapShift-1)]
	}
	return 0
}

func (c *importWalk) walk(id OID) (OID, error) {
	so := objectAt(c.src, id)
	if so == nil {
		return 0, fmt.Errorf("oem: Import: no object %v in source graph", id)
	}
	no := c.g.alloc(so.Kind)
	p := id >> remapShift
	if c.remap[p] == nil {
		c.remap[p] = new(remapPage)
	}
	c.remap[p][id&(1<<remapShift-1)] = no.ID
	c.copied++
	copyAtom(no, so)
	if so.Kind != KindComplex || len(so.Refs) == 0 {
		return no.ID, nil
	}
	refs := c.take(len(so.Refs))
	n := 0
	for _, r := range so.Refs {
		if c.mask.Hides(r) {
			continue
		}
		t := c.copyOf(r.Target)
		if t == 0 {
			var err error
			if t, err = c.walk(r.Target); err != nil {
				return 0, err
			}
		}
		refs[n] = Ref{Label: r.Label, Target: t}
		n++
	}
	no.Refs = refs[:n:n]
	return no.ID, nil
}

// importRefsChunk bounds the chunks reference lists are carved from. They
// start at 64 references and double, so a small answer stays small.
const importRefsChunk = 1024

// take carves a reference list of length n out of the current chunk.
func (c *importWalk) take(n int) []Ref {
	if len(c.refs) < n {
		c.chunk = min(max(2*c.chunk, 64), importRefsChunk)
		c.refs = make([]Ref, max(n, c.chunk))
	}
	r := c.refs[:n:n]
	c.refs = c.refs[n:]
	return r
}

// DeepEqual reports whether the subgraphs rooted at a (in ga) and b (in gb)
// carry the same values and structure, ignoring oids. References are
// compared in order. Cycles terminate via a pair memo.
func DeepEqual(ga *Graph, a OID, gb *Graph, b OID) bool {
	type pair struct{ a, b OID }
	seen := make(map[pair]bool)
	var eq func(a, b OID) bool
	eq = func(a, b OID) bool {
		p := pair{a, b}
		if seen[p] {
			return true // already being compared along this path: assume equal
		}
		seen[p] = true
		oa, ob := ga.Get(a), gb.Get(b)
		if oa == nil || ob == nil {
			return oa == ob
		}
		if oa.Kind != ob.Kind {
			return false
		}
		switch oa.Kind {
		case KindInt:
			return oa.Int == ob.Int
		case KindReal:
			return oa.Real == ob.Real
		case KindString, KindURL:
			return oa.Str == ob.Str
		case KindBool:
			return oa.Bool == ob.Bool
		case KindGif:
			return string(oa.Raw) == string(ob.Raw)
		case KindComplex:
			if len(oa.Refs) != len(ob.Refs) {
				return false
			}
			for i := range oa.Refs {
				if oa.Refs[i].Label != ob.Refs[i].Label {
					return false
				}
				if !eq(oa.Refs[i].Target, ob.Refs[i].Target) {
					return false
				}
			}
			return true
		}
		return false
	}
	return eq(a, b)
}

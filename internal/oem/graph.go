package oem

import (
	"fmt"
	"sort"
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
	mu      sync.RWMutex
	next    OID
	objects map[OID]*Object
	roots   []Root

	// parents is a lazily built reverse-edge index used by navigation and
	// invalidated by any mutation.
	parents map[OID][]Edge

	// labels is a lazily built per-object label index: case-folded label ->
	// ref targets in insertion order, for complex objects with at least
	// labelIndexMinRefs references. It turns the hot label-traversal step of
	// query evaluation over a wide object (a fused gene, the root) into a map
	// hit instead of an O(refs) scan; narrow objects are scanned — a handful
	// of comparisons costs no more than hashing the label, and a map per
	// object is what the index's memory went to. Unlike parents it is
	// maintained incrementally: a mutation records the touched oid in
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
}

// slabMax bounds the object allocation chunk size.
const slabMax = 512

// Root is a named entry point into the graph, e.g. ("LocusLink", &1) or the
// "answer" object of a query result.
type Root struct {
	Name string
	OID  OID
}

// Edge is a labelled edge with an explicit source, used by reverse lookups.
type Edge struct {
	From  OID
	Label string
	To    OID
}

// NewGraph returns an empty graph whose first allocated oid will be &1.
func NewGraph() *Graph {
	return &Graph{next: 1, objects: make(map[OID]*Object)}
}

// Len returns the number of objects in the graph.
func (g *Graph) Len() int {
	if g.frozen.Load() {
		return len(g.objects)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.objects)
}

// Get returns the object with the given oid, or nil if absent. On a frozen
// graph the lookup is lock-free — this is the single hottest operation of
// concurrent plan evaluation over a shared snapshot, and a read lock here
// would put every evaluating goroutine on one contended cache line.
func (g *Graph) Get(id OID) *Object {
	if g.frozen.Load() {
		return g.objects[id]
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.objects[id]
}

// readObjects hands a whole-graph walk the object table and the function
// that ends the walk: a frozen graph is read without its lock, a mutable one
// under one read lock for the walk rather than one per object.
func (g *Graph) readObjects() (map[OID]*Object, func()) {
	if g.frozen.Load() {
		return g.objects, func() {}
	}
	g.mu.RLock()
	return g.objects, g.mu.RUnlock
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
	out := make([]OID, 0, len(g.objects))
	for id := range g.objects {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	o.ID, o.Kind = g.next, kind
	g.objects[g.next] = o
	g.next++
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
// releasing the write lock. The parents index is dropped wholesale (it is
// cold); the label index is repaired lazily from the dirty set.
func (g *Graph) invalidateIndexes(id OID) {
	g.parents = nil
	if g.labels == nil {
		return
	}
	if g.labelsDirty == nil {
		g.labelsDirty = make(map[OID]bool)
	}
	g.labelsDirty[id] = true
	if len(g.labelsDirty) > len(g.objects)/4+labelsRebuildSlack {
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
		if m := labelEntry(g.objects[id], fold); m != nil {
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
	o := g.objects[parent]
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
	o := g.objects[parent]
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
	o := g.objects[parent]
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
		o := g.objects[cur]
		if o == nil {
			continue // already removed (shared within the subtree) or absent
		}
		delete(g.objects, cur)
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
	o := g.objects[parent]
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

// Roots returns the registered roots in registration order.
func (g *Graph) Roots() []Root {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]Root(nil), g.roots...)
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

// TargetsFolded returns the targets of the refs leaving id whose label
// case-folds to folded (which must already be folded with FoldLabel), in
// insertion order. The label index is built on first use and cached until
// the next mutation (a frozen graph is never given one it lacks); an object
// it has an entry for answers from it — that slice is shared with the index
// and must not be mutated — and any other is scanned.
func (g *Graph) TargetsFolded(id OID, folded string) []OID {
	if !g.frozen.Load() {
		g.EnsureLabelIndex()
	}
	if ix, ok := g.LabelIndex(); ok {
		if ts, indexed := ix.Targets(id, folded); indexed {
			return ts
		}
	}
	var out []OID
	if o := g.Get(id); o != nil {
		for _, r := range o.Refs {
			// folded is canonical under FoldLabel, so EqualFold(x, folded)
			// iff FoldLabel(x) == folded.
			if strings.EqualFold(r.Label, folded) {
				out = append(out, r.Target)
			}
		}
	}
	return out
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
	if g.labels == nil {
		g.buildLabelIndexLocked()
	} else {
		g.repairLabelsLocked()
	}
	g.mu.Unlock()
}

// buildLabelIndexLocked materializes the per-object label index. Distinct
// label strings are folded exactly once (interned in fold), so a graph with
// millions of edges over a small label vocabulary allocates a handful of
// folded strings, not one per edge.
func (g *Graph) buildLabelIndexLocked() {
	if g.labels != nil {
		return // lost the upgrade race to another reader
	}
	fold := make(map[string]string)
	idx := make(map[OID]map[string][]OID)
	for id, o := range g.objects {
		if m := labelEntry(o, fold); m != nil {
			idx[id] = m
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

// AtomUnder returns the untyped value of the first atomic child under label,
// or nil if there is none.
func (g *Graph) AtomUnder(id OID, label string) any {
	c := g.Get(g.Child(id, label))
	if c == nil || !c.IsAtomic() {
		return nil
	}
	return c.Value()
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

// Parents returns the labelled in-edges of id. The reverse index is built on
// first use and cached until the next mutation.
func (g *Graph) Parents(id OID) []Edge {
	g.mu.Lock()
	if g.parents == nil {
		g.parents = make(map[OID][]Edge)
		for from, o := range g.objects {
			for _, r := range o.Refs {
				g.parents[r.Target] = append(g.parents[r.Target], Edge{From: from, Label: r.Label, To: r.Target})
			}
		}
		for _, es := range g.parents {
			sort.Slice(es, func(i, j int) bool {
				if es[i].From != es[j].From {
					return es[i].From < es[j].From
				}
				return es[i].Label < es[j].Label
			})
		}
	}
	out := g.parents[id]
	g.mu.Unlock()
	return out
}

// Reachable returns the set of oids reachable from start (inclusive)
// following references.
func (g *Graph) Reachable(start OID) map[OID]bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := make(map[OID]bool)
	stack := []OID{start}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		o := g.objects[id]
		if o == nil {
			continue
		}
		seen[id] = true
		for _, r := range o.Refs {
			if !seen[r.Target] {
				stack = append(stack, r.Target)
			}
		}
	}
	return seen
}

// Validate checks graph integrity: every reference targets an existing
// object and every root exists. It returns the first problem found.
func (g *Graph) Validate() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for id, o := range g.objects {
		if o.ID != id {
			return fmt.Errorf("oem: object stored at %v has ID %v", id, o.ID)
		}
		for _, r := range o.Refs {
			if _, ok := g.objects[r.Target]; !ok {
				return fmt.Errorf("oem: dangling reference %v -%s-> %v", id, r.Label, r.Target)
			}
		}
		if o.Kind != KindComplex && len(o.Refs) > 0 {
			return fmt.Errorf("oem: atomic object %v has references", id)
		}
	}
	for _, r := range g.roots {
		if _, ok := g.objects[r.OID]; !ok {
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
	return g.ImportMasked(src, srcRoot, remap, nil)
}

// ImportMasked is ImportShared of src as seen under mask: a reference the
// mask hides is not copied and not followed, at any depth. srcRoot itself is
// always copied. A nil mask makes it exactly ImportShared. One remap must
// only ever be used with one mask — it records copies, not what they left
// out.
func (g *Graph) ImportMasked(src *Graph, srcRoot OID, remap map[OID]OID, mask *Mask) (OID, error) {
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
		so := src.objects[id]
		if so == nil {
			return 0, fmt.Errorf("oem: Import: no object %v in source graph", id)
		}
		no := g.alloc(so.Kind)
		remap[id] = no.ID
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
		case KindComplex:
			if len(so.Refs) > 0 {
				refs := make([]Ref, 0, len(so.Refs))
				for _, r := range so.Refs {
					if mask != nil && mask.Hides(r) {
						continue
					}
					t, err := walk(r.Target)
					if err != nil {
						return 0, err
					}
					refs = append(refs, Ref{Label: r.Label, Target: t})
				}
				no.Refs = refs
			}
		}
		return no.ID, nil
	}
	return walk(srcRoot)
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

// Stats summarizes a graph for diagnostics.
type Stats struct {
	Objects int
	Atoms   int
	Complex int
	Edges   int
	Roots   int
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var s Stats
	s.Objects = len(g.objects)
	s.Roots = len(g.roots)
	for _, o := range g.objects {
		if o.Kind == KindComplex {
			s.Complex++
			s.Edges += len(o.Refs)
		} else {
			s.Atoms++
		}
	}
	return s
}

package fused

// Checkpoint payload codec: the serialized form of one World — the frozen
// oem graph plus every piece of fusion bookkeeping a later delta replay
// needs (gene parts, resident entities, join indexes, contribution records,
// per-gene conflicts) — with the fingerprint and BuildStats it was saved
// under. The
// container (magic, CRC, atomic rename) is snapstore's job; this codec
// carries its own version byte so a payload from a future revision is
// rejected, and encodes every map in sorted order so equal states produce
// byte-identical payloads (re-encoding a decoded payload reproduces its
// input — the round-trip tests rely on it).

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/oem"
	"repro/internal/wire"
)

var persistMagic = [4]byte{'A', 'S', 'N', 'P'}

// persistCodecVersion is the checkpoint payload format version.
const persistCodecVersion = 1

// Value tags for the any-typed reconciliation values. Only the types
// oem atoms produce (Object.Value) ever appear.
const (
	valNil = iota
	valInt
	valReal
	valString
	valBool
	valBytes
)

// Encode writes w's checkpoint payload, recording fp and bs beside it.
// Equal worlds encode to equal bytes.
func (w *World) Encode(fp uint64, bs BuildStats) ([]byte, error) {
	var buf bytes.Buffer
	e := &pEncoder{wire.NewEncoder(&buf)}
	e.Raw(persistMagic[:])
	e.U8(persistCodecVersion)
	e.U64(fp)

	fs := w.st
	e.U8(byte(fs.policy))
	e.strIntMap(fs.priority)
	e.Uvarint(uint64(fs.root))

	encodeStats(e, &bs, fs.conflicts)

	// The graph travels as a length-prefixed blob: the oem decoder reads
	// through its own buffer, and a length prefix keeps it from consuming
	// bytes that belong to the sections after it.
	var gbuf bytes.Buffer
	if err := oem.EncodeBinary(&gbuf, fs.graph); err != nil {
		return nil, err
	}
	e.Uvarint(uint64(gbuf.Len()))
	e.Raw(gbuf.Bytes())

	// Genes, sorted by fusion key.
	e.Uvarint(uint64(len(fs.genes)))
	for _, k := range sortedKeys(fs.genes) {
		encodeGene(e, fs.genes[k])
	}

	// Join indexes reference genes by key: which gene claims a colliding
	// symbol is history-dependent and cannot be rederived.
	e.Uvarint(uint64(len(fs.bySymbol)))
	for _, s := range sortedKeys(fs.bySymbol) {
		e.Str(s)
		e.Str(fs.bySymbol[s].key)
	}
	e.Uvarint(uint64(len(fs.byGeneID)))
	for _, id := range sortedKeys(fs.byGeneID) {
		e.U64(uint64(id))
		e.Str(fs.byGeneID[id].key)
	}

	// Resident link-concept entities. List order within one (source, hash)
	// matters — removals pop from the end — so lists are verbatim; the maps
	// around them are sorted.
	encodeEnts(e, fs.ents)
	encodeGeneParts(e, fs.geneParts)

	if err := e.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encodeStats(e *pEncoder, st *BuildStats, conflicts []Conflict) {
	e.strs(st.SourcesQueried)
	e.strs(st.SourcesPruned)
	e.strIntMap(st.Fetched)
	e.strIntMap(st.Kept)
	e.Uvarint(uint64(len(conflicts)))
	for i := range conflicts {
		encodeConflict(e, &conflicts[i])
	}
	e.Bool(st.PushdownUsed)
	e.Bool(st.Parallel)
	e.Uvarint(uint64(st.PushdownFallbacks))
	e.U64(uint64(st.FetchTime))
	e.U64(uint64(st.FuseTime))
}

func encodeConflict(e *pEncoder, c *Conflict) {
	e.Str(c.EntityKey)
	e.Str(c.Label)
	e.Uvarint(uint64(len(c.Values)))
	for _, sv := range c.Values {
		encodeSV(e, sv)
	}
	encodeSV(e, c.Winner)
}

func encodeSV(e *pEncoder, sv SourceValue) {
	e.Str(sv.Source)
	e.value(sv.Value)
}

func encodeGene(e *pEncoder, fg *fusedGene) {
	e.Str(fg.key)
	e.Uvarint(uint64(fg.oid))
	e.ints(sortedKeys(fg.geneIDs))
	e.strs(sortedKeys(fg.symbols))

	e.Uvarint(uint64(len(fg.contribs)))
	for _, l := range sortedKeys(fg.contribs) {
		e.Str(l)
		svs := fg.contribs[l]
		e.Uvarint(uint64(len(svs)))
		for _, sv := range svs {
			encodeSV(e, sv)
		}
	}

	e.Uvarint(uint64(len(fg.parts)))
	for _, p := range fg.parts {
		e.Str(p.source)
		e.U64(p.hash)
		e.Uvarint(uint64(len(p.refs)))
		for _, r := range p.refs {
			e.Str(r.Label)
			e.Uvarint(uint64(r.Target))
		}
		e.strs(p.symbols)
		e.ints(p.geneIDs)
		e.Uvarint(uint64(len(p.contribs)))
		for _, c := range p.contribs {
			e.Str(c.label)
			e.Str(c.valueKey)
		}
	}

	clabels := make([]string, 0, len(fg.conflicts))
	for l, c := range fg.conflicts {
		if c != nil {
			clabels = append(clabels, l)
		}
	}
	sort.Strings(clabels)
	e.Uvarint(uint64(len(clabels)))
	for _, l := range clabels {
		e.Str(l)
		encodeConflict(e, fg.conflicts[l])
	}
}

func encodeEnts(e *pEncoder, ents map[string]map[uint64][]*fusedEntity) {
	e.Uvarint(uint64(len(ents)))
	for _, src := range sortedKeys(ents) {
		e.Str(src)
		byHash := ents[src]
		e.Uvarint(uint64(len(byHash)))
		for _, h := range sortedKeys(byHash) {
			e.U64(h)
			list := byHash[h]
			e.Uvarint(uint64(len(list)))
			for _, fe := range list {
				e.Str(fe.concept)
				e.Uvarint(uint64(fe.oid))
				e.strs(fe.symbols)
				e.ints(fe.geneIDs)
				e.strs(fe.owners)
				e.Uvarint(uint64(len(fe.contribs)))
				for _, c := range fe.contribs {
					e.Str(c.owner)
					e.Str(c.label)
					e.Str(c.valueKey)
				}
			}
		}
	}
}

func encodeGeneParts(e *pEncoder, parts map[string]map[uint64][]*fusedGene) {
	e.Uvarint(uint64(len(parts)))
	for _, src := range sortedKeys(parts) {
		e.Str(src)
		byHash := parts[src]
		e.Uvarint(uint64(len(byHash)))
		for _, h := range sortedKeys(byHash) {
			e.U64(h)
			list := byHash[h]
			e.Uvarint(uint64(len(list)))
			for _, fg := range list {
				e.Str(fg.key)
			}
		}
	}
}

// Decode brings a checkpoint payload back as an unsealed Checkpoint.
func Decode(payload []byte) (*Checkpoint, error) {
	d := &pDecoder{wire.NewDecoder(bytes.NewReader(payload))}
	var magic [4]byte
	d.Raw(magic[:])
	if d.Err() == nil && magic != persistMagic {
		return nil, fmt.Errorf("fused: checkpoint payload has bad magic %q", magic[:])
	}
	if v := d.U8(); d.Err() == nil && v != persistCodecVersion {
		return nil, fmt.Errorf("fused: checkpoint payload has unknown format version %d (have %d)", v, persistCodecVersion)
	}
	out := &Checkpoint{}
	out.FP = d.U64()

	fs := &fuseState{
		genes:       map[string]*fusedGene{},
		bySymbol:    map[string]*fusedGene{},
		byGeneID:    map[int64]*fusedGene{},
		ents:        map[string]map[uint64][]*fusedEntity{},
		geneParts:   map[string]map[uint64][]*fusedGene{},
		entBySymbol: map[string]map[*fusedEntity]bool{},
		entByGeneID: map[int64]map[*fusedEntity]bool{},
	}
	fs.policy = Policy(d.U8())
	fs.priority = d.strIntMap()
	fs.root = oem.OID(d.Uvarint())

	out.Stats, fs.conflicts = decodeStats(d)

	gLen := d.Uvarint()
	if d.Err() == nil && gLen > uint64(len(payload)) {
		d.Fail(fmt.Errorf("graph section of %d bytes exceeds payload", gLen))
	}
	gBytes := make([]byte, gLen)
	d.Raw(gBytes)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("fused: checkpoint payload: %v", err)
	}
	g, err := oem.DecodeBinary(bytes.NewReader(gBytes))
	if err != nil {
		return nil, fmt.Errorf("fused: checkpoint payload: %v", err)
	}
	fs.graph = g

	nGenes := d.Uvarint()
	for i := uint64(0); i < nGenes && d.Err() == nil; i++ {
		fg := decodeGene(d)
		if d.Err() == nil {
			fs.genes[fg.key] = fg
		}
	}
	resolveGene := func(key string) *fusedGene {
		fg := fs.genes[key]
		if fg == nil {
			d.Fail(fmt.Errorf("reference to unknown gene %q", key))
		}
		return fg
	}

	nSym := d.Uvarint()
	for i := uint64(0); i < nSym && d.Err() == nil; i++ {
		s := d.Str()
		if fg := resolveGene(d.Str()); fg != nil {
			fs.bySymbol[s] = fg
		}
	}
	nID := d.Uvarint()
	for i := uint64(0); i < nID && d.Err() == nil; i++ {
		id := int64(d.U64())
		if fg := resolveGene(d.Str()); fg != nil {
			fs.byGeneID[id] = fg
		}
	}

	nSrc := d.Uvarint()
	for i := uint64(0); i < nSrc && d.Err() == nil; i++ {
		src := d.Str()
		nHash := d.Uvarint()
		for j := uint64(0); j < nHash && d.Err() == nil; j++ {
			h := d.U64()
			nList := d.Uvarint()
			for k := uint64(0); k < nList && d.Err() == nil; k++ {
				fe := &fusedEntity{source: src, hash: h}
				fe.concept = d.Str()
				fe.oid = oem.OID(d.Uvarint())
				fe.symbols = d.strs()
				fe.geneIDs = d.ints()
				fe.owners = d.strs()
				nC := d.Uvarint()
				for l := uint64(0); l < nC && d.Err() == nil; l++ {
					fe.contribs = append(fe.contribs, ownedContrib{
						owner: d.Str(), label: d.Str(), valueKey: d.Str(),
					})
				}
				if d.Err() == nil {
					// addEntity appends to ents (preserving list order) and
					// rebuilds the entBySymbol/entByGeneID reverse indexes —
					// the same call fresh fusion and patching go through.
					fs.addEntity(fe)
				}
			}
		}
	}

	nPSrc := d.Uvarint()
	for i := uint64(0); i < nPSrc && d.Err() == nil; i++ {
		src := d.Str()
		nHash := d.Uvarint()
		for j := uint64(0); j < nHash && d.Err() == nil; j++ {
			h := d.U64()
			nList := d.Uvarint()
			for k := uint64(0); k < nList && d.Err() == nil; k++ {
				if fg := resolveGene(d.Str()); fg != nil {
					fs.indexGenePart(src, h, fg)
				}
			}
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("fused: checkpoint payload: %v", err)
	}
	// Structural cross-checks the codec itself cannot express: every gene
	// and entity oid must exist in the decoded graph. Catching a dangling
	// oid here steps the recovery ladder at restore time instead of
	// failing a later refresh far from the corruption.
	for k, fg := range fs.genes {
		if fs.graph.Get(fg.oid) == nil {
			return nil, fmt.Errorf("fused: checkpoint payload: gene %q oid %v not in graph", k, fg.oid)
		}
	}
	for src, byHash := range fs.ents {
		for _, list := range byHash {
			for _, fe := range list {
				if fs.graph.Get(fe.oid) == nil {
					return nil, fmt.Errorf("fused: checkpoint payload: %s entity oid %v not in graph", src, fe.oid)
				}
			}
		}
	}
	if fs.graph.Get(fs.root) == nil {
		return nil, fmt.Errorf("fused: checkpoint payload: root oid %v not in graph", fs.root)
	}
	out.st = fs
	return out, nil
}

func decodeStats(d *pDecoder) (BuildStats, []Conflict) {
	var st BuildStats
	st.SourcesQueried = d.strs()
	st.SourcesPruned = d.strs()
	st.Fetched = d.strIntMap()
	st.Kept = d.strIntMap()
	var conflicts []Conflict
	nC := d.Uvarint()
	for i := uint64(0); i < nC && d.Err() == nil; i++ {
		conflicts = append(conflicts, decodeConflict(d))
	}
	st.PushdownUsed = d.Bool()
	st.Parallel = d.Bool()
	st.PushdownFallbacks = int(d.Uvarint())
	st.FetchTime = time.Duration(d.U64())
	st.FuseTime = time.Duration(d.U64())
	if st.Fetched == nil {
		st.Fetched = map[string]int{}
	}
	if st.Kept == nil {
		st.Kept = map[string]int{}
	}
	return st, conflicts
}

func decodeConflict(d *pDecoder) Conflict {
	c := Conflict{}
	c.EntityKey = d.Str()
	c.Label = d.Str()
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		c.Values = append(c.Values, decodeSV(d))
	}
	c.Winner = decodeSV(d)
	return c
}

func decodeSV(d *pDecoder) SourceValue {
	return SourceValue{Source: d.Str(), Value: d.value()}
}

func decodeGene(d *pDecoder) *fusedGene {
	fg := newFusedGene(d.Str())
	fg.oid = oem.OID(d.Uvarint())
	for _, id := range d.ints() {
		fg.geneIDs[id] = true
	}
	for _, s := range d.strs() {
		fg.symbols[s] = true
	}
	nLabels := d.Uvarint()
	for i := uint64(0); i < nLabels && d.Err() == nil; i++ {
		l := d.Str()
		nSV := d.Uvarint()
		var svs []SourceValue
		for j := uint64(0); j < nSV && d.Err() == nil; j++ {
			svs = append(svs, decodeSV(d))
		}
		if d.Err() == nil {
			fg.contribs[l] = svs
		}
	}
	nParts := d.Uvarint()
	for i := uint64(0); i < nParts && d.Err() == nil; i++ {
		p := &genePart{}
		p.source = d.Str()
		p.hash = d.U64()
		nRefs := d.Uvarint()
		for j := uint64(0); j < nRefs && d.Err() == nil; j++ {
			p.refs = append(p.refs, oem.Ref{Label: d.Str(), Target: oem.OID(d.Uvarint())})
		}
		p.symbols = d.strs()
		p.geneIDs = d.ints()
		nC := d.Uvarint()
		for j := uint64(0); j < nC && d.Err() == nil; j++ {
			p.contribs = append(p.contribs, contribRecord{label: d.Str(), valueKey: d.Str()})
		}
		if d.Err() == nil {
			fg.parts = append(fg.parts, p)
		}
	}
	nConf := d.Uvarint()
	for i := uint64(0); i < nConf && d.Err() == nil; i++ {
		l := d.Str()
		c := decodeConflict(d)
		if d.Err() == nil {
			if fg.conflicts == nil {
				fg.conflicts = map[string]*Conflict{}
			}
			fg.conflicts[l] = &c
		}
	}
	return fg
}

// ---------------------------------------------------------------------------
// Payload-specific primitives on top of the shared wire codec
// ---------------------------------------------------------------------------

// sortedKeys returns m's keys in ascending order: every map is encoded in
// key order, so equal states encode to equal bytes.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// keysBy returns m's keys sorted by compare.
func keysBy[K comparable, V any](m map[K]V, compare func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	return keys
}

type pEncoder struct{ *wire.Encoder }

func (e *pEncoder) strs(ss []string) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

func (e *pEncoder) ints(ids []int64) {
	e.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		e.U64(uint64(id))
	}
}

func (e *pEncoder) strIntMap(m map[string]int) {
	e.Uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		e.Str(k)
		e.Uvarint(uint64(m[k]))
	}
}

func (e *pEncoder) value(v any) {
	switch x := v.(type) {
	case nil:
		e.U8(valNil)
	case int64:
		e.U8(valInt)
		e.U64(uint64(x))
	case float64:
		e.U8(valReal)
		e.U64(math.Float64bits(x))
	case string:
		e.U8(valString)
		e.Str(x)
	case bool:
		e.U8(valBool)
		e.Bool(x)
	case []byte:
		e.U8(valBytes)
		e.Uvarint(uint64(len(x)))
		e.Raw(x)
	default:
		e.Fail(fmt.Errorf("fused: cannot encode value of type %T", v))
	}
}

type pDecoder struct{ *wire.Decoder }

func (d *pDecoder) strs() []string {
	n := d.Uvarint()
	var out []string
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		out = append(out, d.Str())
	}
	return out
}

func (d *pDecoder) ints() []int64 {
	n := d.Uvarint()
	var out []int64
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		out = append(out, int64(d.U64()))
	}
	return out
}

func (d *pDecoder) strIntMap() map[string]int {
	n := d.Uvarint()
	// Pre-size from the decoded count only up to a bound: a corrupt count
	// must produce a decode error (EOF in the loop), not an allocation the
	// size of the lie.
	size := n
	if size > 1<<16 {
		size = 1 << 16
	}
	m := make(map[string]int, size)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		k := d.Str()
		v := d.Uvarint()
		m[k] = int(v)
	}
	return m
}

func (d *pDecoder) value() any {
	switch tag := d.U8(); tag {
	case valNil:
		return nil
	case valInt:
		return int64(d.U64())
	case valReal:
		return math.Float64frombits(d.U64())
	case valString:
		return d.Str()
	case valBool:
		return d.Bool()
	case valBytes:
		return d.Bytes()
	default:
		if d.Err() == nil {
			d.Fail(fmt.Errorf("unknown value tag %d", tag))
		}
		return nil
	}
}

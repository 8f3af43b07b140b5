package oem

// Binary codec for OEM graphs: a stable, oid-preserving encoding used by
// the durable snapshot store (internal/snapstore) and the ChangeSet WAL
// (internal/delta). Unlike the Figure 3 text codec, which exists for humans
// and the paper's notation, this format is built for restore-on-boot:
//
//   - oids survive the round trip exactly, so fusion bookkeeping recorded
//     against the original graph (which addresses objects by oid) stays
//     valid against the decoded copy;
//   - edge labels are written once in a label table and decoded into
//     interned strings — a fused world with millions of edges over a small
//     label vocabulary allocates one string per distinct label, not one per
//     edge;
//   - encoding is deterministic (objects in ascending oid order, labels in
//     first-use order), so equal graphs produce byte-identical encodings
//     and re-encoding a decoded graph reproduces its input.
//
// The format carries its own magic and version so a consumer can reject a
// payload from a future revision instead of misreading it. Integrity
// (checksums, atomic writes) is the container's job — see snapstore.

import (
	"fmt"
	"io"
	"math"

	"repro/internal/wire"
)

// codecMagic identifies a binary OEM graph stream.
var codecMagic = [4]byte{'O', 'E', 'M', 'B'}

// CodecVersion is the current binary format version. Decoders reject
// anything else: misreading a future format would corrupt silently, and a
// versioned rejection lets the snapshot store fall back instead.
const CodecVersion = 1

// preallocCap bounds pre-sizes: a corrupt count must not provoke a giant
// allocation (length-prefixed payloads are bounded by wire.MaxString).
const preallocCap = 1 << 16

// oidSpanLimit is the highest oid a decoder accepts for a graph of n
// objects. The object table is as long as the highest oid, so an input
// naming &2^63 would otherwise make the decoder allocate exabytes: this
// keeps the table within a constant factor of the input, whose every object
// takes at least a few bytes. A graph the program built stays far inside
// it — alloc reuses freed oids, so holes only outnumber objects after a
// graph lost most of what it ever held.
func oidSpanLimit(n int) OID {
	return 8*OID(n) + 4096
}

// EncodeBinary writes the stable binary encoding of g. The graph may be
// frozen or live; concurrent mutation during encoding is not supported
// (same contract as every other whole-graph read).
func EncodeBinary(w io.Writer, g *Graph) error {
	e := wire.NewEncoder(w)
	e.Raw(codecMagic[:])
	e.U8(CodecVersion)

	g.mu.RLock()
	// Label table, in first-use order over the ascending-oid object walk.
	labelIdx := make(map[string]uint64)
	var labels []string
	for _, o := range g.objs {
		if o == nil {
			continue
		}
		for _, r := range o.Refs {
			if _, ok := labelIdx[r.Label]; !ok {
				labelIdx[r.Label] = uint64(len(labels))
				labels = append(labels, r.Label)
			}
		}
	}
	e.Uvarint(uint64(len(g.objs)))
	e.Uvarint(uint64(len(labels)))
	for _, l := range labels {
		e.Str(l)
	}

	e.Uvarint(uint64(g.live))
	for _, o := range g.objs {
		if o == nil {
			continue
		}
		id := o.ID
		e.Uvarint(uint64(id))
		e.U8(byte(o.Kind))
		switch o.Kind {
		case KindInt:
			e.U64(uint64(o.Int))
		case KindReal:
			e.U64(math.Float64bits(o.Real))
		case KindString, KindURL:
			e.Str(o.Str)
		case KindBool:
			e.Bool(o.Bool)
		case KindGif:
			e.Uvarint(uint64(len(o.Raw)))
			e.Raw(o.Raw)
		case KindComplex:
			e.Uvarint(uint64(len(o.Refs)))
			for _, r := range o.Refs {
				e.Uvarint(labelIdx[r.Label])
				e.Uvarint(uint64(r.Target))
			}
		default:
			g.mu.RUnlock()
			return fmt.Errorf("oem: encode: object %v has invalid kind %v", id, o.Kind)
		}
	}
	e.Uvarint(uint64(len(g.roots)))
	for _, r := range g.roots {
		e.Str(r.Name)
		e.Uvarint(uint64(r.OID))
	}
	g.mu.RUnlock()

	return e.Flush()
}

// DecodeBinary reads a graph written by EncodeBinary, validating structure
// (every reference resolves, no atomic object carries refs, oids ascend and
// stay within oidSpanLimit of the object count) before returning.
// Corruption yields an error, never a panic or a half-built graph, and the
// object table is sized only once the objects have been read, so a forged
// oid or count costs no more than the input that carries it.
func DecodeBinary(r io.Reader) (*Graph, error) {
	d := wire.NewDecoder(r)
	var magic [4]byte
	d.Raw(magic[:])
	if d.Err() == nil && magic != codecMagic {
		return nil, fmt.Errorf("oem: decode: bad magic %q", magic[:])
	}
	if v := d.U8(); d.Err() == nil && v != CodecVersion {
		return nil, fmt.Errorf("oem: decode: unknown format version %d (have %d)", v, CodecVersion)
	}
	next := d.Uvarint()

	nLabels := d.Uvarint()
	labels := make([]string, 0, minU64(nLabels, preallocCap))
	for i := uint64(0); i < nLabels && d.Err() == nil; i++ {
		labels = append(labels, d.Str())
	}

	nObjects := d.Uvarint()
	objs := make([]*Object, 0, minU64(nObjects, preallocCap))
	var last OID
	slab := make([]Object, minU64(nObjects, preallocCap))
	allocated := 0
	for i := uint64(0); i < nObjects && d.Err() == nil; i++ {
		if allocated == len(slab) {
			slab = make([]Object, minU64(nObjects-i, preallocCap))
			allocated = 0
		}
		o := &slab[allocated]
		allocated++
		o.ID = OID(d.Uvarint())
		o.Kind = Kind(d.U8())
		switch o.Kind {
		case KindInt:
			o.Int = int64(d.U64())
		case KindReal:
			o.Real = math.Float64frombits(d.U64())
		case KindString, KindURL:
			o.Str = d.Str()
		case KindBool:
			o.Bool = d.Bool()
		case KindGif:
			o.Raw = d.Bytes()
		case KindComplex:
			nRefs := d.Uvarint()
			o.Refs = make([]Ref, 0, minU64(nRefs, preallocCap))
			for j := uint64(0); j < nRefs && d.Err() == nil; j++ {
				li := d.Uvarint()
				target := OID(d.Uvarint())
				if d.Err() != nil {
					break
				}
				if li >= uint64(len(labels)) {
					return nil, fmt.Errorf("oem: decode: label index %d out of range (%d labels)", li, len(labels))
				}
				o.Refs = append(o.Refs, Ref{Label: labels[li], Target: target})
			}
		default:
			if d.Err() == nil {
				return nil, fmt.Errorf("oem: decode: object %v has invalid kind %d", o.ID, byte(o.Kind))
			}
		}
		if d.Err() != nil {
			break
		}
		if o.ID == 0 {
			return nil, fmt.Errorf("oem: decode: object with reserved oid 0")
		}
		if o.ID <= last {
			return nil, fmt.Errorf("oem: decode: oid %v after %v (oids must ascend)", o.ID, last)
		}
		last = o.ID
		objs = append(objs, o)
	}

	g := &Graph{free: 1}
	nRoots := d.Uvarint()
	for i := uint64(0); i < nRoots && d.Err() == nil; i++ {
		name := d.Str()
		id := OID(d.Uvarint())
		g.roots = append(g.roots, Root{Name: name, OID: id})
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("oem: decode: %v", err)
	}
	if limit := oidSpanLimit(len(objs)); last > limit || next > uint64(limit)+1 {
		return nil, fmt.Errorf("oem: decode: oid space of %d (next %d) out of proportion to %d objects", last, next, len(objs))
	}
	g.objs = make([]*Object, max(uint64(last)+1, next, 1))
	for _, o := range objs {
		g.objs[o.ID] = o
	}
	g.live = len(objs)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("oem: decode: %v", err)
	}
	return g, nil
}

func minU64(v, bound uint64) uint64 {
	if v < bound {
		return v
	}
	return bound
}

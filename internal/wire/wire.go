// Package wire holds the sticky-error binary primitives shared by the
// repo's three persistence codecs (the oem graph codec, the delta
// ChangeSet codec, and the mediator checkpoint payload codec). One
// implementation, one set of bounds: a hardening fix lands in every
// format at once instead of drifting across three private copies.
//
// Encoding is little-endian; variable-length integers use encoding/binary
// uvarints. Both halves are sticky: the first error latches and every
// later call is a no-op, so codecs read as straight-line field lists with
// a single error check at the end.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// MaxString bounds any length-prefixed byte payload (strings, blobs): a
// corrupt length prefix must fail fast, not provoke a multi-gigabyte
// allocation.
const MaxString = 1 << 30

// Encoder writes primitives through a buffered writer, latching the first
// error.
type Encoder struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

// NewEncoder wraps w in a buffered Encoder. Call Flush before handing the
// underlying writer to anything else.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriter(w)}
}

// Fail latches err (first one wins).
func (e *Encoder) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Flush drains the buffer and returns the latched (or flush) error.
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// Raw writes p verbatim.
func (e *Encoder) Raw(p []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

// U8 writes one byte.
func (e *Encoder) U8(b byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(b)
	}
}

// Bool writes a bool as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Uvarint writes v as an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.Raw(e.buf[:n])
}

// U64 writes v as 8 little-endian bytes.
func (e *Encoder) U64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.Raw(e.buf[:8])
}

// Str writes a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

// Decoder reads primitives through a buffered reader, latching the first
// error. Zero values are returned after an error, so callers may decode a
// whole section and check Err once.
type Decoder struct {
	r   *bufio.Reader
	err error
}

// NewDecoder wraps r in a buffered Decoder. The Decoder may read ahead of
// what it returns; use Reader to hand the stream to another buffered
// consumer.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

// Reader exposes the underlying buffered reader (for chaining into
// another decoder without losing buffered bytes).
func (d *Decoder) Reader() *bufio.Reader { return d.r }

// Err returns the latched error, if any.
func (d *Decoder) Err() error { return d.err }

// Fail latches err (first one wins).
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Raw fills p exactly.
func (d *Decoder) Raw(p []byte) {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, p)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	d.err = err
	return b
}

// Bool reads a one-byte bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	d.err = err
	return v
}

// U64 reads 8 little-endian bytes.
func (d *Decoder) U64() uint64 {
	var buf [8]byte
	d.Raw(buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// Str reads a length-prefixed string, bounded by MaxString.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > MaxString {
		d.err = fmt.Errorf("wire: string of %d bytes exceeds bound", n)
		return ""
	}
	buf := make([]byte, n)
	if d.Raw(buf); d.err != nil {
		return ""
	}
	return string(buf)
}

// Bytes reads a length-prefixed byte slice, bounded by MaxString.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > MaxString {
		d.err = fmt.Errorf("wire: byte payload of %d bytes exceeds bound", n)
		return nil
	}
	buf := make([]byte, n)
	if d.Raw(buf); d.err != nil {
		return nil
	}
	return buf
}

package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

func TestRoundTripEveryPrimitive(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Raw([]byte("HDR"))
	e.U8(0)
	e.U8(255)
	e.Bool(true)
	e.Bool(false)
	uvarints := []uint64{0, 1, 127, 128, 1 << 35, math.MaxUint64}
	for _, v := range uvarints {
		e.Uvarint(v)
	}
	e.U64(0)
	e.U64(0x0102030405060708)
	e.U64(math.MaxUint64)
	strs := []string{"", "GO:0001006", "π·λ", strings.Repeat("x", 10000)}
	for _, s := range strs {
		e.Str(s)
	}
	e.Str("blob\x00bytes")
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	d := NewDecoder(&buf)
	hdr := make([]byte, 3)
	d.Raw(hdr)
	if string(hdr) != "HDR" {
		t.Errorf("Raw = %q", hdr)
	}
	if a, b := d.U8(), d.U8(); a != 0 || b != 255 {
		t.Errorf("U8 = %d, %d", a, b)
	}
	if a, b := d.Bool(), d.Bool(); !a || b {
		t.Errorf("Bool = %v, %v", a, b)
	}
	for _, want := range uvarints {
		if got := d.Uvarint(); got != want {
			t.Errorf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range []uint64{0, 0x0102030405060708, math.MaxUint64} {
		if got := d.U64(); got != want {
			t.Errorf("U64 = %#x, want %#x", got, want)
		}
	}
	for _, want := range strs {
		if got := d.Str(); got != want {
			t.Errorf("Str = %.20q (len %d), want %.20q (len %d)", got, len(got), want, len(want))
		}
	}
	if got := d.Bytes(); string(got) != "blob\x00bytes" {
		t.Errorf("Bytes = %q", got)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.U8(); !errors.Is(d.Err(), io.EOF) {
		t.Errorf("read past the end: err %v, want EOF", d.Err())
	}
}

// U64 is little-endian on the wire, whatever the host order.
func TestU64LittleEndian(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.U64(0x0102030405060708)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := []byte{8, 7, 6, 5, 4, 3, 2, 1}; !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("U64 bytes = %v, want %v", buf.Bytes(), want)
	}
}

// After a short read the first error latches: every later call returns the
// zero value and the error stays the one that happened first.
func TestDecoderErrorIsSticky(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Str("truncated payload")
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()[:5]))
	if s := d.Str(); s != "" {
		t.Errorf("short Str = %q, want empty", s)
	}
	first := d.Err()
	if !errors.Is(first, io.ErrUnexpectedEOF) {
		t.Fatalf("short read err = %v, want ErrUnexpectedEOF", first)
	}
	d.Fail(errors.New("later failure"))
	if d.U8() != 0 || d.Bool() || d.Uvarint() != 0 || d.U64() != 0 || d.Str() != "" || d.Bytes() != nil {
		t.Error("a call after the error returned a non-zero value")
	}
	if d.Err() != first {
		t.Errorf("err = %v, want the first error %v", d.Err(), first)
	}
}

// A length prefix above MaxString fails before anything is allocated.
func TestMaxStringBound(t *testing.T) {
	for name, read := range map[string]func(*Decoder){
		"Str":   func(d *Decoder) { d.Str() },
		"Bytes": func(d *Decoder) { d.Bytes() },
	} {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.Uvarint(MaxString + 1)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		d := NewDecoder(&buf)
		read(d)
		if d.Err() == nil || !strings.Contains(d.Err().Error(), "exceeds bound") {
			t.Errorf("%s: err = %v, want the MaxString bound", name, d.Err())
		}
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

func TestFlushPropagatesWriteError(t *testing.T) {
	boom := errors.New("disk full")
	e := NewEncoder(failWriter{boom})
	e.Str("buffered, not yet written")
	if e.Err() != nil {
		t.Fatalf("buffered write failed early: %v", e.Err())
	}
	if err := e.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want %v", err, boom)
	}

	// A write larger than the buffer reaches the writer at once; the error
	// latches, later writes are no-ops and Flush reports the first error.
	e = NewEncoder(failWriter{boom})
	e.Raw(make([]byte, 1<<16))
	if !errors.Is(e.Err(), boom) {
		t.Fatalf("large Raw err = %v, want %v", e.Err(), boom)
	}
	e.Fail(errors.New("later failure"))
	e.U64(1)
	if err := e.Flush(); !errors.Is(err, boom) {
		t.Errorf("Flush = %v, want the first error %v", err, boom)
	}
}

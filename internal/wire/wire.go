// Package wire implements the tiny binary substrate shared by the
// persistent-store codecs (typestate tables, bottom-up summaries, top-down
// result tables): a sticky-error writer/reader pair over uvarint-framed
// primitives. Encoders write into an in-memory buffer and are infallible;
// decoders accumulate the first malformed-input error and turn every
// subsequent read into a no-op, so codec code reads a whole record straight
// through and checks the error once at the end. Malformed input never
// panics — a corrupt store entry must degrade to a cache miss, not crash
// the analysis.
//
// All integers are unsigned varints (zigzag-folded for signed values), so
// encodings are platform-independent and byte-identical for equal values —
// the property the store's decode→re-encode tests pin.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Writer accumulates an encoded record. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded record. The slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Raw appends bytes verbatim (magic tags, digests).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Uint appends an unsigned varint.
func (w *Writer) Uint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int appends a zigzag-folded signed varint.
func (w *Writer) Int(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bool appends a one-byte boolean.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// WriteI32s appends a length-prefixed slice of int32-kinded values
// (interned IDs, FSM states, literals). Values are zigzag-folded so
// negative sentinels survive.
func WriteI32s[T ~int32](w *Writer, xs []T) {
	w.Uint(uint64(len(xs)))
	for _, x := range xs {
		w.Int(int64(x))
	}
}

// Reader decodes a record produced by Writer. The first malformed read
// sets the sticky error; every later read returns a zero value.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Expect consumes len(tag) bytes and checks they equal tag (magic headers).
func (r *Reader) Expect(tag string) {
	b := r.Raw(len(tag))
	if r.err == nil && string(b) != tag {
		r.fail("bad magic: got %q, want %q", b, tag)
	}
}

// Raw consumes n bytes verbatim. The returned slice aliases the input.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.fail("truncated input: need %d bytes at offset %d of %d", n, r.pos, len(r.data))
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Uint consumes an unsigned varint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if !r.canonical(n) {
		r.fail("bad uvarint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Int consumes a zigzag-folded signed varint.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if !r.canonical(n) {
		r.fail("bad varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// canonical reports whether the n-byte varint at the read position is one
// the Writer emits. encoding/binary also accepts overlong forms padded
// with 0x80 bytes (80 00 decodes to 0), which would re-encode to fewer
// bytes; the shortest form never ends in a 0x00 byte after the first.
func (r *Reader) canonical(n int) bool {
	return n == 1 || n > 1 && r.data[r.pos+n-1] != 0
}

// Bool consumes a one-byte boolean.
func (r *Reader) Bool() bool {
	b := r.Raw(1)
	if r.err != nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail("bad boolean byte %d at offset %d", b[0], r.pos-1)
	return false
}

// Len consumes a length prefix and bounds-checks it against the remaining
// input, assuming each element occupies at least one byte. This is what
// keeps a corrupt length from allocating gigabytes before the truncation
// is noticed.
func (r *Reader) Len() int {
	n := r.Uint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)-r.pos) {
		r.fail("length %d exceeds %d remaining bytes", n, len(r.data)-r.pos)
		return 0
	}
	return int(n)
}

// String consumes a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len()
	return string(r.Raw(n))
}

// ReadI32s consumes a slice written by WriteI32s.
func ReadI32s[T ~int32](r *Reader) []T {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		v := r.Int()
		if v < -1<<31 || v > 1<<31-1 {
			r.fail("value %d overflows int32", v)
			return nil
		}
		out[i] = T(v)
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Done checks that the whole record was consumed cleanly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("wire: %d trailing bytes after record", len(r.data)-r.pos)
	}
	return nil
}

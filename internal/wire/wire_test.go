package wire

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestReaderRejects: every malformed input sets the sticky error with a
// message naming the fault, and Done reports it.
func TestReaderRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		read func(r *Reader)
		want string
	}{
		{"truncated raw", []byte{1, 2}, func(r *Reader) { r.Raw(3) }, "truncated input"},
		{"truncated uint", []byte{0x80}, func(r *Reader) { r.Uint() }, "bad uvarint"},
		{"overlong uint zero", []byte{0x80, 0x00}, func(r *Reader) { r.Uint() }, "bad uvarint"},
		{"overlong uint", []byte{0x81, 0x80, 0x00}, func(r *Reader) { r.Uint() }, "bad uvarint"},
		{"overlong int", []byte{0x82, 0x00}, func(r *Reader) { r.Int() }, "bad varint"},
		{"overflowing uint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uint() }, "bad uvarint"},
		{"bool byte 2", []byte{2}, func(r *Reader) { r.Bool() }, "bad boolean byte 2"},
		{"len beyond input", []byte{5, 'a', 'b'}, func(r *Reader) { r.Len() }, "length 5 exceeds 2 remaining bytes"},
		{"string beyond input", []byte{3, 'a'}, func(r *Reader) { _ = r.String() }, "exceeds 1 remaining"},
		{"int32 overflow", append([]byte{1}, appendInt(1<<31)...), func(r *Reader) { ReadI32s[int32](r) }, "overflows int32"},
		{"int32 underflow", append([]byte{1}, appendInt(-1<<31-1)...), func(r *Reader) { ReadI32s[int32](r) }, "overflows int32"},
		{"bad magic", []byte("SWX"), func(r *Reader) { r.Expect("SWT") }, "bad magic"},
		{"trailing bytes", []byte{7, 0}, func(r *Reader) { r.Uint() }, "1 trailing bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.data)
			tc.read(r)
			err := r.Done()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Done() = %v, want an error containing %q", err, tc.want)
			}
			// A read error is sticky: later reads are no-ops returning zero.
			if r.Err() != nil {
				if v := r.Uint(); v != 0 || r.Err() != err {
					t.Errorf("read after error = %d, err %v", v, r.Err())
				}
			}
		})
	}
}

// appendInt returns the Writer encoding of one signed varint.
func appendInt(v int64) []byte {
	var w Writer
	w.Int(v)
	return w.Bytes()
}

// TestReaderRoundTrip: what the Writer emits, the Reader accepts and
// decodes to the written values, including the varint boundaries where an
// encoding grows a byte.
func TestReaderRoundTrip(t *testing.T) {
	uints := []uint64{0, 1, 127, 128, 16383, 16384, 1<<63 - 1, 1 << 63, ^uint64(0)}
	ints := []int64{0, -1, 1, -64, 64, -1 << 63, 1<<63 - 1}
	i32s := []int32{0, -1, 1<<31 - 1, -1 << 31}
	var w Writer
	w.Raw([]byte("SWT"))
	for _, v := range uints {
		w.Uint(v)
	}
	for _, v := range ints {
		w.Int(v)
	}
	w.Bool(true)
	w.Bool(false)
	w.String("")
	w.String("héllo")
	WriteI32s(&w, i32s)
	WriteI32s[int32](&w, nil)

	r := NewReader(w.Bytes())
	r.Expect("SWT")
	for _, want := range uints {
		if got := r.Uint(); got != want {
			t.Errorf("Uint = %d, want %d", got, want)
		}
	}
	for _, want := range ints {
		if got := r.Int(); got != want {
			t.Errorf("Int = %d, want %d", got, want)
		}
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool did not round-trip")
	}
	if r.String() != "" || r.String() != "héllo" {
		t.Error("String did not round-trip")
	}
	if got := ReadI32s[int32](r); !slices.Equal(got, i32s) {
		t.Errorf("ReadI32s = %v, want %v", got, i32s)
	}
	if got := ReadI32s[int32](r); got != nil {
		t.Errorf("empty ReadI32s = %v, want nil", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// FuzzReader decodes data with the sequence of reads that ops spells out
// (one read per byte; see replayOps). The reader must never panic, and a
// record it accepts completely (Done returns nil) must be canonical:
// writing the decoded values back through Writer reproduces data byte for
// byte. That is the store's "reject or round-trip" contract for blobs.
// The seed corpus is in testdata/fuzz/FuzzReader.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := NewReader(data)
		var out Writer
		replayOps(ops, r, &out)
		if r.Done() != nil {
			return
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %x but re-encodes to %x", data, out.Bytes())
		}
	})
}

// replayOps performs the reads selected by ops on r, writing each decoded
// value to w with the matching Writer call. The low three bits of an op
// byte pick the read; for Raw the high bits give its length.
func replayOps(ops []byte, r *Reader, w *Writer) {
	for _, op := range ops {
		switch op & 7 {
		case 0:
			w.Uint(r.Uint())
		case 1:
			w.Int(r.Int())
		case 2:
			w.Bool(r.Bool())
		case 3:
			w.String(r.String())
		case 4:
			w.Raw(r.Raw(int(op >> 3)))
		case 5:
			WriteI32s(w, ReadI32s[int32](r))
		default:
			w.Uint(uint64(r.Len()))
		}
	}
}

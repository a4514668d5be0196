package typestate

// Canonical-form tests and fuzz targets for the store decoders:
// DecodeSummaries and RestoreTables must reject every input their encoder
// would not write, and never panic. Any input they accept re-encodes
// (EncodeSummaries, or EncodeTables after the restore) to the same bytes.

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"swift/internal/wire"
)

// summaryProc is one procedure entry of a hand-built summaries blob.
type summaryProc struct {
	name  string
	rels  [][]byte
	sigma [][]byte
}

// writeSummaries lays out a summaries blob field by field as
// EncodeSummaries does, but without its sorting, so tests can build inputs
// the encoder never writes.
func writeSummaries(ts *Analysis, procs ...summaryProc) []byte {
	var w wire.Writer
	w.Raw([]byte(summariesMagic))
	w.String(ts.FrozenDigest())
	w.Bool(false)
	w.Uint(0) // frontier
	w.Uint(uint64(len(procs)))
	for _, p := range procs {
		w.String(p.name)
		for _, blobs := range [][][]byte{p.rels, p.sigma} {
			w.Uint(uint64(len(blobs)))
			for _, b := range blobs {
				w.Uint(uint64(len(b)))
				w.Raw(b)
			}
		}
	}
	return w.Bytes()
}

// xformBlob encodes a relation blob as encRel lays it out: the identity
// transformer with explicit must keep set keep, must gen set gen, an
// unconstrained must-not side and precondition true.
func xformBlob(ts *Analysis, keep, gen []PathID) []byte {
	var w wire.Writer
	w.Uint(uint64(kXform))
	id := make([]GState, ts.tab.numG)
	for g := range id {
		id[g] = GState(g)
	}
	wire.WriteI32s(&w, id)
	w.Bool(false)
	wire.WriteI32s(&w, keep)
	wire.WriteI32s(&w, gen)
	w.Bool(true)
	wire.WriteI32s[PathID](&w, nil)
	wire.WriteI32s[PathID](&w, nil)
	wire.WriteI32s[literal](&w, nil)
	return w.Bytes()
}

// formulaBlob encodes a Sigma formula blob.
func formulaBlob(lits ...literal) []byte {
	var w wire.Writer
	wire.WriteI32s(&w, lits)
	return w.Bytes()
}

// sortedBlobs returns blobs in the encoder's order.
func sortedBlobs(blobs ...[]byte) [][]byte {
	slices.SortFunc(blobs, sliceCmp)
	return blobs
}

// TestDecodeSummariesRejectsNonCanonical feeds DecodeSummaries blobs that
// are well formed field by field but that EncodeSummaries never writes.
// Each would decode to a summary that re-encodes to different bytes, so
// each must be rejected; the canonical blob built the same way must decode
// and re-encode to itself.
func TestDecodeSummariesRejectsNonCanonical(t *testing.T) {
	ts, _ := buildPair(t, figure1Program(), figure1Track())
	rels := sortedBlobs(xformBlob(ts, []PathID{0}, nil), xformBlob(ts, nil, []PathID{0}))
	sigma := sortedBlobs(formulaBlob(), formulaBlob(mkLit(0, litInA)))
	proc := func(name string) summaryProc { return summaryProc{name, rels, sigma} }
	rev := func(xs [][]byte) [][]byte { return [][]byte{xs[1], xs[0]} }

	// want is a substring of the rejection; empty for the canonical blob.
	cases := []struct {
		name string
		blob []byte
		want string
	}{
		{"canonical", writeSummaries(ts, proc("a"), proc("b")), ""},
		{"duplicate procedure", writeSummaries(ts, proc("a"), proc("a")), "sorted order"},
		{"procedures out of order", writeSummaries(ts, proc("b"), proc("a")), "sorted order"},
		{"relations out of order", writeSummaries(ts, summaryProc{"a", rev(rels), sigma}), "relations of"},
		{"duplicate relation", writeSummaries(ts, summaryProc{"a", [][]byte{rels[0], rels[0]}, sigma}), "relations of"},
		{"Sigma out of order", writeSummaries(ts, summaryProc{"a", rels, rev(sigma)}), "Sigma of"},
		{"duplicate Sigma formula", writeSummaries(ts, summaryProc{"a", rels, [][]byte{sigma[0], sigma[0]}}), "Sigma of"},
		// Path 0 both kept and generated: internRel drops it from the keep
		// set, so the relation would re-encode without it.
		{"non-canonical relation", writeSummaries(ts, summaryProc{"a", [][]byte{xformBlob(ts, []PathID{0}, []PathID{0})}, nil}), "canonical form"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frontier, eta, failed, err := ts.DecodeSummaries(tc.blob)
			if tc.want != "" {
				if err == nil {
					t.Fatalf("accepted; re-encodes to %d bytes from %d",
						len(ts.EncodeSummaries(frontier, eta, failed)), len(tc.blob))
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want it to mention %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if again := ts.EncodeSummaries(frontier, eta, failed); !bytes.Equal(again, tc.blob) {
				t.Fatalf("re-encodes to %d bytes from %d", len(again), len(tc.blob))
			}
		})
	}
}

// paddingPaths returns the two ends of the padding of a set row: the
// path IDs numPaths and 64·W−1 fit in a W-word bitset but lie outside the
// path universe.
func paddingPaths(tb testing.TB, ts *Analysis) []PathID {
	numPaths, w := ts.tab.numPaths(), len(ts.tab.sets.scratch)
	if numPaths%64 == 0 {
		tb.Fatalf("%d paths fill their %d-word rows: no padding to test", numPaths, w)
	}
	return []PathID{PathID(numPaths), PathID(64*w - 1)}
}

// paddingSnapshot returns a fresh Figure 1 pipeline's tables snapshot
// with one more set, {bad}, interned past the codecs' range checks.
func paddingSnapshot(tb testing.TB, bad PathID) []byte {
	ts, _ := buildPair(tb, figure1Program(), figure1Track())
	ts.tab.internSet([]PathID{bad})
	return ts.EncodeTables()
}

// paddingSummaries returns a summaries blob whose one relation keeps the
// explicit set {bad}.
func paddingSummaries(ts *Analysis, bad PathID) []byte {
	return writeSummaries(ts, summaryProc{"a", [][]byte{xformBlob(ts, []PathID{bad}, nil)}, nil})
}

// TestDecodersRejectPaddingPaths feeds decSet, DecodeSummaries and
// RestoreTables sets holding a path ID in a row's padding. Each must
// reject the input with a range error rather than set the padding bit,
// which would make a set no path can be a member of.
func TestDecodersRejectPaddingPaths(t *testing.T) {
	ts, _ := buildPair(t, figure1Program(), figure1Track())
	for _, bad := range paddingPaths(t, ts) {
		t.Run(fmt.Sprint("path ", bad), func(t *testing.T) {
			var w wire.Writer
			wire.WriteI32s(&w, []PathID{0, bad})
			_, err := ts.decSet(wire.NewReader(w.Bytes()))
			checkRangeErr(t, "decSet", err)

			_, _, _, err = ts.DecodeSummaries(paddingSummaries(ts, bad))
			checkRangeErr(t, "DecodeSummaries", err)

			fresh, _ := buildPair(t, figure1Program(), figure1Track())
			checkRangeErr(t, "RestoreTables", fresh.RestoreTables(paddingSnapshot(t, bad)))
		})
	}
}

func checkRangeErr(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("%s: err = %v, want a path range error", what, err)
	}
}

// figure1Blobs runs SWIFT on Figure 1 and returns its tables snapshot and
// the encoded summaries of the run.
func figure1Blobs(tb testing.TB) (tables, summaries []byte) {
	ts, an := buildPair(tb, figure1Program(), figure1Track())
	res := runSwift(tb, ts, an)
	return ts.EncodeTables(), ts.EncodeSummaries([]string{"foo"}, res.BU, false)
}

// FuzzDecodeSummaries: DecodeSummaries never panics, and whatever it
// accepts re-encodes to the input bytes.
func FuzzDecodeSummaries(f *testing.F) {
	_, summaries := figure1Blobs(f)
	f.Add(summaries)
	ts, _ := buildPair(f, figure1Program(), figure1Track())
	f.Add(ts.EncodeSummaries(nil, nil, true))
	f.Fuzz(func(t *testing.T, data []byte) {
		frontier, eta, failed, err := ts.DecodeSummaries(data)
		if err != nil {
			return
		}
		if again := ts.EncodeSummaries(frontier, eta, failed); !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}

// FuzzRestoreTables: RestoreTables never panics, and whatever it accepts
// into a fresh pipeline re-encodes to the input bytes.
func FuzzRestoreTables(f *testing.F) {
	tables, _ := figure1Blobs(f)
	f.Add(tables)
	fresh, _ := buildPair(f, figure1Program(), figure1Track())
	f.Add(fresh.EncodeTables())
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, _ := buildPair(t, figure1Program(), figure1Track())
		if err := ts.RestoreTables(data); err != nil {
			return
		}
		if again := ts.EncodeTables(); !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}

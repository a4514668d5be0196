package typestate

// Canonical-form tests and the fuzz target for the store decoder:
// RestoreTables must reject every input EncodeTables would not write, and
// never panic. Any input it accepts re-encodes (EncodeTables after the
// restore) to the same bytes.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

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

// TestDecodersRejectPaddingPaths feeds RestoreTables sets holding a path
// ID in a row's padding. It must reject the input with a range error
// rather than set the padding bit, which would make a set no path can be
// a member of.
func TestDecodersRejectPaddingPaths(t *testing.T) {
	ts, _ := buildPair(t, figure1Program(), figure1Track())
	for _, bad := range paddingPaths(t, ts) {
		t.Run(fmt.Sprint("path ", bad), func(t *testing.T) {
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

// figure1Tables runs SWIFT on Figure 1 and returns its tables snapshot.
func figure1Tables(tb testing.TB) []byte {
	ts, an := buildPair(tb, figure1Program(), figure1Track())
	runSwift(tb, ts, an)
	return ts.EncodeTables()
}

// FuzzRestoreTables: RestoreTables never panics, and whatever it accepts
// into a fresh pipeline re-encodes to the input bytes.
func FuzzRestoreTables(f *testing.F) {
	f.Add(figure1Tables(f))
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

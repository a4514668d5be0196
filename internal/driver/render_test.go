package driver

import (
	"bytes"
	"testing"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/typestate"
)

// TestRenderInternsNothing checks that rendering is read-only: after a
// swift run on a generated benchmark program, rendering every interned
// abstract state (StateString) and relation (RelString, which cmd/swift's
// summary dump prints) leaves the intern-table snapshot byte-identical.
// A renderer that interned, say, the must-not set it prints would grow
// every later snapshot and store blob.
func TestRenderInternsNothing(t *testing.T) {
	p, ok := benchprog.ProfileByName("elevator")
	if !ok {
		t.Fatal("unknown profile elevator")
	}
	hprog, err := benchprog.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromHIR(hprog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run("swift", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed() {
		t.Fatal(res.Err)
	}
	before := b.TS.EncodeTables()
	states, rels := b.TS.StateCount(), b.TS.RelCount()
	for s := 0; s < states; s++ {
		b.TS.StateString(typestate.AbsID(s))
	}
	for r := 0; r < rels; r++ {
		b.TS.RelString(typestate.RelID(r))
	}
	if after := b.TS.EncodeTables(); !bytes.Equal(before, after) {
		t.Fatalf("rendering %d states and %d relations changed the tables snapshot: %d -> %d bytes",
			states, rels, len(before), len(after))
	}
}

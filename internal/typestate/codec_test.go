package typestate

import (
	"bytes"
	"math/rand"
	"testing"

	"swift/internal/core"
	"swift/internal/ir"
)

// This file pins the snapshot codec's contract: decode∘encode is the
// identity on bytes (tables and summaries), restored tables reproduce the
// exact intern IDs of the run that published them, and every corrupt or
// mismatched input is rejected with an error — never a panic, never a
// silently wrong table.

func buildPair(t testing.TB, prog *ir.Program, track map[string]*Property) (*Analysis, *core.Analysis[AbsID, RelID, FormulaID]) {
	t.Helper()
	ts, err := NewAnalysis(prog, track, nil)
	if err != nil {
		t.Fatalf("NewAnalysis: %v", err)
	}
	an, err := core.NewAnalysis[AbsID, RelID, FormulaID](ts, prog)
	if err != nil {
		t.Fatalf("core.NewAnalysis: %v", err)
	}
	return ts, an
}

func figure1Track() map[string]*Property {
	file := FileProperty()
	return map[string]*Property{"h1": file, "h2": file, "h3": file}
}

// runSwift drives the hybrid engine with thresholds low enough that
// figure 1 (and the random programs) actually trigger bottom-up
// summarization, so the snapshot has real content.
func runSwift(t testing.TB, ts *Analysis, an *core.Analysis[AbsID, RelID, FormulaID]) *core.Result[AbsID, RelID, FormulaID] {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.K = 1
	cfg.Theta = 1
	res, err := an.RunEngine("swift", ts.InitialState(), cfg)
	if err != nil {
		t.Fatalf("swift: %v", err)
	}
	if !res.Completed() {
		t.Fatalf("swift did not complete: %v", res.Err)
	}
	return res
}

func TestTablesRoundTripFigure1(t *testing.T) {
	ts, an := buildPair(t, figure1Program(), figure1Track())
	if !ts.Fresh() {
		t.Fatal("new pipeline not Fresh")
	}
	runSwift(t, ts, an)
	if ts.Fresh() {
		t.Fatal("pipeline still Fresh after a run; snapshot would be trivial")
	}
	blob := ts.EncodeTables()

	ts2, _ := buildPair(t, figure1Program(), figure1Track())
	if err := ts2.RestoreTables(blob); err != nil {
		t.Fatalf("RestoreTables: %v", err)
	}
	if ts2.Fresh() {
		t.Fatal("restored pipeline claims to be Fresh")
	}
	again := ts2.EncodeTables()
	if !bytes.Equal(blob, again) {
		t.Fatalf("re-encoded tables differ: %d vs %d bytes", len(blob), len(again))
	}
}

// TestTablesRestoredIDsPinResults is the point of the tables snapshot:
// a restored pipeline re-running the same engine produces the same
// interned IDs everywhere, hence a byte-identical snapshot again.
func TestTablesRestoredIDsPinResults(t *testing.T) {
	ts, an := buildPair(t, figure1Program(), figure1Track())
	res1 := runSwift(t, ts, an)
	blob := ts.EncodeTables()

	ts2, an2 := buildPair(t, figure1Program(), figure1Track())
	if err := ts2.RestoreTables(blob); err != nil {
		t.Fatalf("RestoreTables: %v", err)
	}
	res2 := runSwift(t, ts2, an2)
	if !bytes.Equal(blob, ts2.EncodeTables()) {
		t.Fatal("run after restore changed the tables")
	}
	// Summaries of both runs must encode identically too.
	s1 := ts.EncodeSummaries(nil, res1.BU, false)
	s2 := ts2.EncodeSummaries(nil, res2.BU, false)
	if !bytes.Equal(s1, s2) {
		t.Fatal("summary encodings differ between cold and restored runs")
	}
}

func TestRestoreTablesRejectsNonFresh(t *testing.T) {
	ts, an := buildPair(t, figure1Program(), figure1Track())
	runSwift(t, ts, an)
	blob := ts.EncodeTables()
	if err := ts.RestoreTables(blob); err == nil {
		t.Fatal("RestoreTables into a used pipeline succeeded")
	}
}

func TestRestoreTablesRejectsDigestMismatch(t *testing.T) {
	ts, an := buildPair(t, figure1Program(), figure1Track())
	runSwift(t, ts, an)
	blob := ts.EncodeTables()

	// Same property, different program shape → different frozen digest.
	other := ir.NewProgram("main")
	other.Add(&ir.Proc{Name: "main", Body: &ir.Seq{Cmds: []ir.Cmd{
		&ir.Prim{Kind: ir.New, Dst: "f", Site: "h1"},
		&ir.Prim{Kind: ir.TSCall, Dst: "f", Method: "open"},
	}}})
	ts2, _ := buildPair(t, other, map[string]*Property{"h1": FileProperty()})
	if err := ts2.RestoreTables(blob); err == nil {
		t.Fatal("RestoreTables accepted a snapshot from a different program")
	}
}

// TestFrozenDigestMemo: the memoized frozen digest equals a recomputation
// after a run has grown the intern tables, and each slice clone computes
// its own, distinct from the parent's, whether the parent's memo was
// filled before the clone was made or after.
func TestFrozenDigestMemo(t *testing.T) {
	for _, parentFirst := range []bool{true, false} {
		ts, an := buildPair(t, figure1Program(), figure1Track())
		if parentFirst {
			ts.FrozenDigest()
		}
		runSwift(t, ts, an)
		seen := map[string]bool{}
		for _, id := range ts.Slices() {
			c, _, err := ts.SliceClient(id)
			if err != nil {
				t.Fatal(err)
			}
			clone := c.(*Analysis)
			d := clone.FrozenDigest()
			if d != clone.computeFrozenDigest() {
				t.Errorf("slice %s: memoized digest differs from a recomputation", id)
			}
			if d == ts.FrozenDigest() || seen[d] {
				t.Errorf("slice %s: digest %.12s is not its own", id, d)
			}
			seen[d] = true
		}
		if ts.FrozenDigest() != ts.computeFrozenDigest() {
			t.Errorf("parentFirst=%v: memoized digest differs from a recomputation", parentFirst)
		}
	}
}

// TestTablesCodecRejectsCorruption: every truncation must error, and no
// byte flip may panic. (A flip can legitimately decode — the digest only
// guards the frozen construction — but it must never crash the decoder.)
func TestTablesCodecRejectsCorruption(t *testing.T) {
	ts, an := buildPair(t, figure1Program(), figure1Track())
	runSwift(t, ts, an)
	blob := ts.EncodeTables()

	restore := func(data []byte) error {
		ts2, _ := buildPair(t, figure1Program(), figure1Track())
		return ts2.RestoreTables(data)
	}
	for n := 0; n < len(blob); n += 1 + len(blob)/97 {
		if err := restore(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	for i := 0; i < len(blob); i += 1 + len(blob)/97 {
		mut := bytes.Clone(blob)
		mut[i] ^= 0x5a
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flip at byte %d panicked: %v", i, r)
				}
			}()
			restore(mut)
		}()
	}
}

func TestSummariesRoundTrip(t *testing.T) {
	ts, an := buildPair(t, figure1Program(), figure1Track())
	res := runSwift(t, ts, an)
	if len(res.BU) == 0 {
		t.Fatal("swift run produced no bottom-up summaries; fixture lost its point")
	}
	frontier := []string{"foo"}
	blob := ts.EncodeSummaries(frontier, res.BU, false)

	gotFrontier, eta, failed, err := ts.DecodeSummaries(blob)
	if err != nil {
		t.Fatalf("DecodeSummaries: %v", err)
	}
	if failed {
		t.Fatal("failed flag flipped on")
	}
	if len(gotFrontier) != 1 || gotFrontier[0] != "foo" {
		t.Fatalf("frontier = %v", gotFrontier)
	}
	if len(eta) != len(res.BU) {
		t.Fatalf("decoded %d procs, want %d", len(eta), len(res.BU))
	}
	again := ts.EncodeSummaries(gotFrontier, eta, failed)
	if !bytes.Equal(blob, again) {
		t.Fatal("re-encoded summaries differ")
	}

	// The failed flag round-trips as well.
	fblob := ts.EncodeSummaries(frontier, nil, true)
	if _, _, f2, err := ts.DecodeSummaries(fblob); err != nil || !f2 {
		t.Fatalf("failed-outcome round trip: failed=%v err=%v", f2, err)
	}
}

// TestSummariesEncodingIsInternOrderIndependent: the summary encoding is
// structural, so a pipeline with completely different intern IDs (a
// fresh one that never ran anything) decodes the blob and re-encodes it
// to identical bytes. This is what makes relaxed (no tables snapshot)
// summary reuse possible at all.
func TestSummariesEncodingIsInternOrderIndependent(t *testing.T) {
	ts, an := buildPair(t, figure1Program(), figure1Track())
	res := runSwift(t, ts, an)
	blob := ts.EncodeSummaries([]string{"foo"}, res.BU, false)

	ts2, _ := buildPair(t, figure1Program(), figure1Track())
	frontier, eta, failed, err := ts2.DecodeSummaries(blob)
	if err != nil {
		t.Fatalf("DecodeSummaries on fresh pipeline: %v", err)
	}
	if !bytes.Equal(blob, ts2.EncodeSummaries(frontier, eta, failed)) {
		t.Fatal("structural encoding depends on intern order")
	}
}

func TestSummariesCodecRejectsCorruption(t *testing.T) {
	ts, an := buildPair(t, figure1Program(), figure1Track())
	res := runSwift(t, ts, an)
	blob := ts.EncodeSummaries([]string{"foo"}, res.BU, false)
	for n := 0; n < len(blob); n += 1 + len(blob)/97 {
		if _, _, _, err := ts.DecodeSummaries(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	for i := 0; i < len(blob); i += 1 + len(blob)/97 {
		mut := bytes.Clone(blob)
		mut[i] ^= 0x5a
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flip at byte %d panicked: %v", i, r)
				}
			}()
			ts.DecodeSummaries(mut)
		}()
	}
}

// TestCodecRandomPrograms sweeps the round-trip properties over seeded
// random programs (the coincidence-test generator), so the codec is
// exercised well beyond the hand-built fixture: empty summaries,
// degenerate seed collapses, loops, recursion.
func TestCodecRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	track := func() map[string]*Property {
		file := FileProperty()
		return map[string]*Property{"s1": file, "s2": file}
	}
	cfg := core.DefaultConfig()
	cfg.K = 1
	cfg.Theta = 1
	cfg.MaxBUSteps = 2_000_000
	cfg.MaxRelations = 2_000_000

	for trial := 0; trial < 25; trial++ {
		prog := randomProgram(rng)
		ts, an := buildPair(t, prog, track())
		res, err := an.RunEngine("swift", ts.InitialState(), cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Completed() {
			continue // budget aborts are possible; codec needs completed tables
		}
		blob := ts.EncodeTables()
		sblob := ts.EncodeSummaries([]string{prog.Entry}, res.BU, false)

		ts2, an2 := buildPair(t, prog, track())
		if err := ts2.RestoreTables(blob); err != nil {
			t.Fatalf("trial %d: RestoreTables: %v", trial, err)
		}
		if !bytes.Equal(blob, ts2.EncodeTables()) {
			t.Fatalf("trial %d: tables round trip differs", trial)
		}
		res2, err := an2.RunEngine("swift", ts2.InitialState(), cfg)
		if err != nil || !res2.Completed() {
			t.Fatalf("trial %d: restored run: %v / %v", trial, err, res2.Err)
		}
		if !bytes.Equal(sblob, ts2.EncodeSummaries([]string{prog.Entry}, res2.BU, false)) {
			t.Fatalf("trial %d: summaries differ between cold and restored runs", trial)
		}

		// Structural independence on a fresh pipeline.
		ts3, _ := buildPair(t, prog, track())
		fr, eta, failed, err := ts3.DecodeSummaries(sblob)
		if err != nil {
			t.Fatalf("trial %d: fresh decode: %v", trial, err)
		}
		if !bytes.Equal(sblob, ts3.EncodeSummaries(fr, eta, failed)) {
			t.Fatalf("trial %d: structural summary encoding not intern-order independent", trial)
		}
	}
}

package driver

import (
	"bytes"
	"slices"
	"testing"

	"swift/internal/benchprog"
)

// tweakUtil0 is the canonical closure-preserving edit for these tests:
// Util0.process sits at the top of the utility chain, so every other
// utility layer's call-graph closure excludes it and keeps its summary
// keys across the edit.
var tweakUtil0 = benchprog.Edit{Kind: benchprog.EditTweakBody, Class: "Util0", Method: "process"}

func buildToba(t *testing.T, edits ...benchprog.Edit) *Build {
	t.Helper()
	p, ok := benchprog.ProfileByName("toba-s")
	if !ok {
		t.Fatal("toba-s profile missing")
	}
	prog, err := benchprog.GenerateEdited(p, edits...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromHIR(prog)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDigestIndexMatchesClosureDigest: the index must produce exactly
// the digests the summary keys use, or its invalidation frontier would
// not describe the store.
func TestDigestIndexMatchesClosureDigest(t *testing.T) {
	b := buildToba(t)
	idx := IndexClosures(b)
	names := b.Lowered.Prog.ProcNames()
	if len(idx) != len(names) {
		t.Fatalf("index has %d procedures, program %d", len(idx), len(names))
	}
	for _, name := range names {
		if idx[name] != closureDigest(b.Lowered.Prog, name) {
			t.Errorf("index digest of %s differs from closureDigest", name)
		}
	}
}

// TestDigestIndexFrontier: identical programs diff to nothing; a
// single-procedure body edit invalidates exactly the edited procedure
// and its transitive callers — a proper subset of the program.
func TestDigestIndexFrontier(t *testing.T) {
	base := IndexClosures(buildToba(t))
	if ch := base.Changed(IndexClosures(buildToba(t))); len(ch) != 0 {
		t.Fatalf("identical programs have frontier %v", ch)
	}
	edited := IndexClosures(buildToba(t, tweakUtil0))
	frontier := edited.Changed(base)
	if len(frontier) == 0 {
		t.Fatal("edit produced an empty invalidation frontier")
	}
	if len(frontier) >= len(base) {
		t.Fatalf("frontier covers %d of %d procedures; want a proper subset", len(frontier), len(base))
	}
	if !slices.Contains(frontier, "Util0.process") {
		t.Fatalf("frontier %v does not contain the edited procedure", frontier)
	}
	for _, name := range frontier {
		if edited[name] == base[name] {
			t.Errorf("%s is in the frontier but its digest is unchanged", name)
		}
	}
}

// TestIncrementalSummaryReuseAfterEdit is the tentpole acceptance
// criterion at the driver layer: after a single-procedure edit, triggers
// whose call-graph closure is untouched are answered from the store, in
// relaxed mode (no tables snapshot exists for the new program digest).
func TestIncrementalSummaryReuseAfterEdit(t *testing.T) {
	st := openStore(t)
	cfg := lowConfig()

	cold := buildToba(t)
	res1, stats1, err := Warm{Store: st}.Run(cold, "swift", cfg)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if !res1.Completed() {
		t.Fatalf("cold did not complete: %v", res1.Err)
	}
	if stats1.SummaryMisses == 0 {
		t.Fatal("cold run triggered no run_bu; the fixture no longer exercises summaries")
	}

	edited := buildToba(t, tweakUtil0)
	if cold.TS.FrozenDigest() != edited.TS.FrozenDigest() {
		t.Fatal("tweak edit changed the frozen digest; relaxed reuse is impossible")
	}
	res2, stats2, err := Warm{Store: st}.Run(edited, "swift", cfg)
	if err != nil {
		t.Fatalf("edited: %v", err)
	}
	if !res2.Completed() {
		t.Fatalf("edited run did not complete: %v", res2.Err)
	}
	if stats2.RestoredTables {
		t.Fatal("edited program restored the base program's tables snapshot")
	}
	if stats2.SummaryHits == 0 {
		t.Fatal("edited run reused no summaries; untouched closures must hit")
	}
	if !stats2.Relaxed {
		t.Fatal("summary reuse without tables restore not flagged as relaxed")
	}
}

// TestIncrementalRevertByteIdentical: after an edit is reverted (the
// base program is analyzed again), the warm run must restore the cold
// run's snapshot and reproduce its result tables byte for byte — under
// every deterministic engine, with the edited version's artifacts
// sitting in the same store.
func TestIncrementalRevertByteIdentical(t *testing.T) {
	for _, engine := range []string{"td", "bu", "swift"} {
		t.Run(engine, func(t *testing.T) {
			st := openStore(t)
			cfg := lowConfig()

			cold := buildToba(t)
			res1, stats1, err := Warm{Store: st}.Run(cold, engine, cfg)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			if !stats1.PublishedTables {
				t.Fatal("cold run did not publish tables")
			}
			enc1 := EncodeResultTables(cold, res1)

			edited := buildToba(t, tweakUtil0)
			if _, _, err := (Warm{Store: st}).Run(edited, engine, cfg); err != nil {
				t.Fatalf("edited: %v", err)
			}

			revert := buildToba(t)
			res3, stats3, err := Warm{Store: st}.Run(revert, engine, cfg)
			if err != nil {
				t.Fatalf("revert: %v", err)
			}
			if !stats3.RestoredTables {
				t.Fatal("reverted program did not restore the base snapshot")
			}
			if stats3.SummaryMisses != 0 {
				t.Fatalf("reverted run had %d summary misses, want 0", stats3.SummaryMisses)
			}
			if !bytes.Equal(enc1, EncodeResultTables(revert, res3)) {
				t.Fatal("reverted result tables differ from the cold run's")
			}
		})
	}
}

// TestWarmRestoreFailedNoPublish is the satellite-1 regression: a
// truncated tables snapshot must fail the restore without poisoning the
// store — the run must not publish its (possibly polluted) tables, the
// corrupt blob must be deleted, and the next fresh run must re-publish a
// good snapshot that subsequent runs restore.
func TestWarmRestoreFailedNoPublish(t *testing.T) {
	st := openStore(t)
	cfg := lowConfig()

	cold := mustBuild(t, badProgram)
	if _, stats, err := (Warm{Store: st}).Run(cold, "swift", cfg); err != nil || !stats.PublishedTables {
		t.Fatalf("cold: err=%v stats=%+v", err, stats)
	}
	tablesKey := keyTemplate(cold, "swift", normalizeConfig("swift", cfg))
	tablesKey.Kind = "tables"
	tablesKey.Body = ProgramDigest(cold)
	blob, ok := st.Get(tablesKey)
	if !ok {
		t.Fatal("published tables not in store")
	}
	st.Put(tablesKey, blob[:len(blob)/2])

	poisoned := mustBuild(t, badProgram)
	res2, stats2, err := Warm{Store: st}.Run(poisoned, "swift", cfg)
	if err != nil {
		t.Fatalf("run against truncated snapshot: %v", err)
	}
	if !res2.Completed() {
		t.Fatalf("run against truncated snapshot did not complete: %v", res2.Err)
	}
	if stats2.RestoredTables {
		t.Fatal("truncated snapshot restored")
	}
	if !stats2.RestoreFailed {
		t.Fatal("failed restore not recorded")
	}
	if stats2.PublishedTables {
		t.Fatal("run published tables after a failed restore")
	}
	if _, ok := st.Get(tablesKey); ok {
		t.Fatal("corrupt snapshot still in store")
	}

	// The next fresh run finds no snapshot, re-publishes a good one, and
	// the run after that restores it and reproduces its tables.
	repub := mustBuild(t, badProgram)
	res3, stats3, err := Warm{Store: st}.Run(repub, "swift", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !stats3.PublishedTables || stats3.RestoreFailed {
		t.Fatalf("re-publish run stats = %+v", stats3)
	}
	enc3 := EncodeResultTables(repub, res3)

	warm := mustBuild(t, badProgram)
	res4, stats4, err := Warm{Store: st}.Run(warm, "swift", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !stats4.RestoredTables {
		t.Fatal("restore after re-publish failed")
	}
	if !bytes.Equal(enc3, EncodeResultTables(warm, res4)) {
		t.Fatal("restored run differs from the re-published one")
	}
}

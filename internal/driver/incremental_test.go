package driver

import (
	"bytes"
	"testing"

	"swift/internal/benchprog"
)

// tweakUtil0 is the edit these tests apply: a body tweak of
// Util0.process, which changes the program digest but not the frozen
// construction.
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
	tablesKey := keyFor(cold.TS.FrozenDigest(), "swift", normalizeConfig("swift", cfg))
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

package driver

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"swift/internal/core"
	"swift/internal/store"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir(), 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustBuild(t *testing.T, src string) *Build {
	t.Helper()
	b, err := FromSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func lowConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.K = 1
	cfg.Theta = 1
	return cfg
}

// TestWarmRunByteIdentical is the warm-start acceptance criterion: under
// every engine, a warm run against the store a cold run populated must
// produce byte-identical result tables.
func TestWarmRunByteIdentical(t *testing.T) {
	for _, engine := range []string{"td", "bu", "swift"} {
		t.Run(engine, func(t *testing.T) {
			st := openStore(t)
			cfg := lowConfig()

			cold := mustBuild(t, badProgram)
			res1, stats1, err := Warm{Store: st}.Run(cold, engine, cfg)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			if !res1.Completed() {
				t.Fatalf("cold did not complete: %v", res1.Err)
			}
			if stats1.RestoredTables {
				t.Fatal("cold run restored tables from an empty store")
			}
			if !stats1.PublishedTables {
				t.Fatal("cold run did not publish its tables")
			}
			enc1 := EncodeResultTables(cold, res1)
			report1, err := cold.ErrorReport(res1)
			if err != nil {
				t.Fatal(err)
			}

			warm := mustBuild(t, badProgram)
			res2, stats2, err := Warm{Store: st}.Run(warm, engine, cfg)
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			if !stats2.RestoredTables {
				t.Fatal("warm run did not restore tables")
			}
			if stats2.PublishedTables {
				t.Fatal("warm run re-published tables it restored")
			}
			enc2 := EncodeResultTables(warm, res2)
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("result tables differ: cold %d bytes, warm %d bytes", len(enc1), len(enc2))
			}
			report2, err := warm.ErrorReport(res2)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(report1, ",") != strings.Join(report2, ",") {
				t.Fatalf("reports differ: %v vs %v", report1, report2)
			}
		})
	}
}

// TestWarmTDKeyNormalization: td ignores K, so td runs requested with
// different K values must share store entries.
func TestWarmTDKeyNormalization(t *testing.T) {
	st := openStore(t)
	cfg := core.DefaultConfig()
	cfg.K = 3
	if _, stats, err := (Warm{Store: st}).Run(mustBuild(t, goodProgram), "td", cfg); err != nil || !stats.PublishedTables {
		t.Fatalf("cold td: err=%v stats=%+v", err, stats)
	}
	cfg.K = 9
	_, stats, err := Warm{Store: st}.Run(mustBuild(t, goodProgram), "td", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.RestoredTables {
		t.Fatal("td with a different K missed the tables; K should be normalized out")
	}
}

// TestWarmInvalidation: a formatting-only source change (same lowered
// program) still hits; a semantic change misses the tables snapshot and
// recomputes — and still reports correctly.
func TestWarmInvalidation(t *testing.T) {
	st := openStore(t)
	cfg := lowConfig()

	if _, stats, err := (Warm{Store: st}).Run(mustBuild(t, badProgram), "swift", cfg); err != nil || !stats.PublishedTables {
		t.Fatalf("cold: err=%v stats=%+v", err, stats)
	}

	// Whitespace and comment-free reformatting lowers identically.
	reformatted := strings.ReplaceAll(badProgram, "\n", "\n ")
	_, stats, err := Warm{Store: st}.Run(mustBuild(t, reformatted), "swift", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.RestoredTables {
		t.Fatal("reformatted source missed; keys must depend on the lowered program, not the text")
	}

	// A semantic change (an extra misuse call) must miss the snapshot.
	changed := strings.Replace(badProgram, "w.doubleOpen(a)", "w.doubleOpen(a)\n    w.doubleOpen(a)", 1)
	b := mustBuild(t, changed)
	res, stats, err := Warm{Store: st}.Run(b, "swift", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RestoredTables {
		t.Fatal("changed program restored the old tables snapshot")
	}
	report, err := b.ErrorReport(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(report, ",") != "h1,h2" {
		t.Fatalf("report after change = %v, want [h1 h2]", report)
	}
}

// TestWarmBudgetAbortReproduced: a deterministic budget abort is a
// cacheable outcome — the warm rerun aborts identically, byte for byte.
func TestWarmBudgetAbortReproduced(t *testing.T) {
	st := openStore(t)
	cfg := lowConfig()
	cfg.MaxRelations = 1

	cold := mustBuild(t, badProgram)
	res1, stats1, err := Warm{Store: st}.Run(cold, "bu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Completed() || !errors.Is(res1.Err, core.ErrBudget) {
		t.Fatalf("bu with MaxRelations=1 should abort on budget, got %v", res1.Err)
	}
	if !stats1.PublishedTables {
		t.Fatal("deterministic abort did not publish tables")
	}
	enc1 := EncodeResultTables(cold, res1)

	warm := mustBuild(t, badProgram)
	res2, stats2, err := Warm{Store: st}.Run(warm, "bu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.RestoredTables {
		t.Fatal("warm abort rerun did not restore tables")
	}
	if !bytes.Equal(enc1, EncodeResultTables(warm, res2)) {
		t.Fatal("aborted runs differ between cold and warm")
	}
}

// TestWarmWithoutStoreRunsCold: Warm with a nil store degrades to
// Build.Run exactly.
func TestWarmWithoutStoreRunsCold(t *testing.T) {
	b := mustBuild(t, badProgram)
	res, stats, err := Warm{}.Run(b, "swift", lowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed() {
		t.Fatal(res.Err)
	}
	if *stats != (WarmStats{}) {
		t.Fatalf("nil-store stats = %+v, want zero", *stats)
	}
}

// TestSlicedErrorReportNamesAbortCause pins the bugfix: a slice aborted
// by budget exhaustion must be reported as an abort of that slice's
// engine — with the cause wrapped — not as the misleading "has no
// instantiated states to report on".
func TestSlicedErrorReportNamesAbortCause(t *testing.T) {
	b := mustBuild(t, badProgram)
	cfg := lowConfig()
	cfg.MaxRelations = 1
	res, err := b.RunSliced("bu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := b.SlicedErrorReport(res)
	if rerr == nil {
		t.Fatal("aborted sliced run produced a report")
	}
	msg := rerr.Error()
	if !strings.Contains(msg, "bu slice") || !strings.Contains(msg, "aborted") {
		t.Errorf("report error %q should name the engine and the abort", msg)
	}
	if strings.Contains(msg, "no instantiated states") {
		t.Errorf("report error %q still uses the misleading empty-state wording", msg)
	}
	if !errors.Is(rerr, core.ErrBudget) {
		t.Errorf("report error should wrap the budget cause, got %v", rerr)
	}
}

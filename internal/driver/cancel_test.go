package driver

// Cancellation tests at the warm/demand layer: a canceled run publishes
// nothing to the store (no tables snapshot), memoizes no
// slice tables, and a subsequent identical request recomputes tables
// byte-identical to a never-canceled cold run — for all three engines.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"swift/internal/core"
)

// heavySource renders a program whose straight-line main body has n
// tracked-object operations: enough periodic-check traffic that a
// pre-closed cancel channel reliably aborts any engine mid-run (one
// check interval is 256 checks).
func heavySource(n int) string {
	var sb strings.Builder
	sb.WriteString(`
property File {
  states closed opened error
  error error
  open: closed -> opened
  close: opened -> closed
  read: opened -> opened
}

class Main {
  method main() {
    f = new File @h1
    f.open()
`)
	for i := 0; i < n; i++ {
		sb.WriteString("    f.read()\n")
	}
	sb.WriteString(`    f.close()
  }
}
`)
	return sb.String()
}

func closedCancel() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// TestCanceledWarmRunPublishesNothing: for every engine, a Warm.Run with
// a pre-closed cancel channel returns ErrCanceled and leaves the store
// untouched — zero Puts across the tables and any other layer.
func TestCanceledWarmRunPublishesNothing(t *testing.T) {
	src := heavySource(2000)
	for _, engine := range []string{"td", "bu", "swift"} {
		t.Run(engine, func(t *testing.T) {
			st := openStore(t)
			cfg := lowConfig()
			cfg.Cancel = closedCancel()
			b := mustBuild(t, src)
			res, stats, err := Warm{Store: st}.Run(b, engine, cfg)
			if err != nil {
				t.Fatalf("Warm.Run: %v", err)
			}
			if !errors.Is(res.Err, core.ErrCanceled) {
				t.Fatalf("Err = %v, want ErrCanceled", res.Err)
			}
			if stats.PublishedTables {
				t.Fatal("canceled run published tables")
			}
			if n := st.Stats().Puts; n != 0 {
				t.Fatalf("canceled run put %d store entries, want 0", n)
			}
		})
	}
}

// TestCancelThenRecomputeByteIdentical pins the acceptance criterion: on
// a store polluted by nothing (because the canceled run published
// nothing), an identical follow-up request recomputes result tables
// byte-identical to a never-canceled cold run on a fresh store.
func TestCancelThenRecomputeByteIdentical(t *testing.T) {
	src := heavySource(2000)
	for _, engine := range []string{"td", "bu", "swift"} {
		t.Run(engine, func(t *testing.T) {
			// Never-canceled cold reference on its own fresh store.
			ref := mustBuild(t, src)
			refRes, _, err := Warm{Store: openStore(t)}.Run(ref, engine, lowConfig())
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if !refRes.Completed() {
				t.Fatalf("reference did not complete: %v", refRes.Err)
			}
			want := EncodeResultTables(ref, refRes)

			// Canceled run, then an identical request against the same store.
			st := openStore(t)
			ccfg := lowConfig()
			ccfg.Cancel = closedCancel()
			b1 := mustBuild(t, src)
			res1, _, err := Warm{Store: st}.Run(b1, engine, ccfg)
			if err != nil {
				t.Fatalf("canceled: %v", err)
			}
			if !errors.Is(res1.Err, core.ErrCanceled) {
				t.Fatalf("canceled run: Err = %v, want ErrCanceled", res1.Err)
			}
			b2 := mustBuild(t, src)
			res2, stats2, err := Warm{Store: st}.Run(b2, engine, lowConfig())
			if err != nil {
				t.Fatalf("recompute: %v", err)
			}
			if !res2.Completed() {
				t.Fatalf("recompute did not complete: %v", res2.Err)
			}
			if stats2.RestoredTables {
				t.Fatalf("recompute warm-started from a canceled run's leftovers: %+v", stats2)
			}
			if got := EncodeResultTables(b2, res2); !bytes.Equal(got, want) {
				t.Fatal("recomputed tables differ from the never-canceled cold run")
			}
		})
	}
}

// TestCanceledSliceNotMemoized: the demand path must fail a canceled
// batch without memoizing anything — under td, whose aborts leave a
// partial non-nil TD table that would otherwise silently answer
// "unreachable" everywhere — and a later evaluator on the same memo must
// recompute and succeed.
func TestCanceledSliceNotMemoized(t *testing.T) {
	b, err := FromSource(badProgram) // tracked sites h1, h2
	if err != nil {
		t.Fatal(err)
	}
	memo := NewSliceMemo(0)
	ccfg := lowConfig()
	ccfg.Cancel = closedCancel()
	e1, err := NewDemandEvaluator(b, "td", ccfg, memo)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e1.Tables([]core.SliceID{"h1"}); err == nil {
		t.Fatal("canceled batch succeeded")
	} else if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled batch: err = %v, want ErrCanceled in the chain", err)
	}
	if n := memo.Stats().Entries; n != 0 {
		t.Fatalf("canceled batch memoized %d slice tables, want 0", n)
	}

	e2, err := NewDemandEvaluator(b, "td", lowConfig(), memo)
	if err != nil {
		t.Fatal(err)
	}
	tables, _, err := e2.Tables([]core.SliceID{"h1"})
	if err != nil {
		t.Fatalf("recompute after cancel: %v", err)
	}
	if !tables["h1"].ErrorSite {
		t.Fatal("recomputed slice lost the h1 error verdict")
	}
}

// TestAbortedSliceWithPartialTDNotMemoized pins the partial-table guard
// directly: a td slice run aborted by a budget (not a cancellation)
// leaves res.TD non-nil but incomplete, and must still fail table
// construction instead of building a table that answers from the partial
// run.
func TestAbortedSliceWithPartialTDNotMemoized(t *testing.T) {
	b, err := FromSource(heavySource(600))
	if err != nil {
		t.Fatal(err)
	}
	memo := NewSliceMemo(0)
	cfg := lowConfig()
	cfg.MaxPathEdges = 50
	e, err := NewDemandEvaluator(b, "td", cfg, memo)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = e.Tables([]core.SliceID{"h1"})
	if err == nil {
		t.Fatal("budget-aborted batch succeeded")
	}
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget in the chain", err)
	}
	if !strings.Contains(err.Error(), "h1") {
		t.Fatalf("err %q does not name the aborted slice", err)
	}
	if n := memo.Stats().Entries; n != 0 {
		t.Fatalf("aborted batch memoized %d slice tables, want 0", n)
	}
}

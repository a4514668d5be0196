package driver

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"swift/internal/core"
)

// allEngines is every engine the sliced execution layer must support.
var allEngines = []string{"td", "bu", "swift"}

// checkSlicedEquivalence asserts, for every engine, that the sliced run's
// merged error report equals the monolithic run's report, at two worker
// counts.
func checkSlicedEquivalence(t *testing.T, label, src string) {
	t.Helper()
	b, err := FromSource(src)
	if err != nil {
		t.Fatalf("%s: FromSource: %v", label, err)
	}
	for _, engine := range allEngines {
		cfg := core.DefaultConfig()
		cfg.K = 1 // trigger the bottom-up side early so slices exercise it
		mono, err := b.Run(engine, cfg)
		if err != nil {
			t.Fatalf("%s/%s: Run: %v", label, engine, err)
		}
		if !mono.Completed() {
			t.Fatalf("%s/%s: monolithic run did not complete: %v", label, engine, mono.Err)
		}
		want, err := b.ErrorReport(mono)
		if err != nil {
			t.Fatalf("%s/%s: ErrorReport: %v", label, engine, err)
		}
		for _, workers := range []int{1, 3} {
			cfg.SliceWorkers = workers
			sliced, err := b.RunSliced(engine, cfg)
			if err != nil {
				t.Fatalf("%s/%s/w=%d: RunSliced: %v", label, engine, workers, err)
			}
			if !sliced.Completed() {
				t.Fatalf("%s/%s/w=%d: sliced run did not complete: %v",
					label, engine, workers, sliced.Err())
			}
			got, err := b.SlicedErrorReport(sliced)
			if err != nil {
				t.Fatalf("%s/%s/w=%d: SlicedErrorReport: %v", label, engine, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s/w=%d: sliced report %v, monolithic %v",
					label, engine, workers, got, want)
			}
		}
	}
}

func TestSlicedEquivalenceFixtures(t *testing.T) {
	checkSlicedEquivalence(t, "good", goodProgram)
	checkSlicedEquivalence(t, "bad", badProgram)
}

func TestSlicedEquivalenceTestdata(t *testing.T) {
	src, err := os.ReadFile("../../testdata/mirror.mj")
	if err != nil {
		t.Fatal(err)
	}
	checkSlicedEquivalence(t, "mirror", string(src))
}

// randomSource generates a small random mini-Java program over the File
// protocol: several tracked and untracked allocation sites, helper methods
// with random (often protocol-violating) operation sequences, loops,
// branches and cross-method aliasing.
func randomSource(rng *rand.Rand) string {
	ops := []string{"open", "close", "read"}
	nSites := 1 + rng.Intn(4)
	nMethods := 1 + rng.Intn(3)

	var body func(depth int) string
	body = func(depth int) string {
		n := 1 + rng.Intn(3)
		out := ""
		for i := 0; i < n; i++ {
			switch k := rng.Intn(6); {
			case k == 0 && depth > 0:
				out += "while (*) { " + body(depth-1) + "} "
			case k == 1 && depth > 0:
				out += "if (*) { " + body(depth-1) + "} "
			case k == 2:
				out += "g = f; g." + ops[rng.Intn(len(ops))] + "(); "
			default:
				out += "f." + ops[rng.Intn(len(ops))] + "(); "
			}
		}
		return out
	}

	src := `
property File {
  states closed opened error
  error error
  open: closed -> opened
  close: opened -> closed
  read: opened -> opened
}
class Worker {
`
	for m := 0; m < nMethods; m++ {
		src += fmt.Sprintf("  method m%d(f) { %s}\n", m, body(2))
	}
	src += "}\nclass Main {\n  method main() {\n    w = new Worker @w\n"
	for s := 0; s < nSites; s++ {
		src += fmt.Sprintf("    f%d = new File @h%d\n", s, s)
	}
	// An untracked allocation mixed in, so slicing also sees spawnless New.
	src += "    u = new Worker @u0\n"
	for c := 0; c < 2+rng.Intn(4); c++ {
		src += fmt.Sprintf("    w.m%d(f%d)\n", rng.Intn(nMethods), rng.Intn(nSites))
	}
	src += "  }\n}\n"
	return src
}

func TestSlicedEquivalenceRandomPrograms(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		src := randomSource(rng)
		checkSlicedEquivalence(t, fmt.Sprintf("rand%d", trial), src)
	}
}

// sliceFingerprint renders everything deterministic about a sliced run.
func sliceFingerprint(res *SlicedResult) string {
	out := res.Engine + "\n"
	for i := range res.Slices {
		sl := &res.Slices[i]
		r := sl.Result
		out += fmt.Sprintf("slice %s: work=%d tdsum=%d busum=%d steps=%d rels=%d triggered=%v err=%v\n",
			sl.ID, r.WorkUnits(), r.TDSummaryTotal(), r.BUSummaryTotal(),
			r.BUStats.Steps, r.BUStats.Relations, r.Triggered, r.Err)
	}
	out += fmt.Sprintf("total work=%d max=%d tdsum=%d busum=%d triggered=%v\n",
		res.WorkUnits(), res.MaxSliceWork(), res.TDSummaryTotal(),
		res.BUSummaryTotal(), res.Triggered())
	return out
}

// TestSlicedWorkerCountDeterminism pins the tentpole's determinism claim
// at the engine level: for every engine, the entire sliced
// outcome — per-slice counters, summaries, triggers, merged totals — is
// byte-identical across worker counts.
func TestSlicedWorkerCountDeterminism(t *testing.T) {
	src, err := os.ReadFile("../../testdata/mirror.mj")
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"td", "bu", "swift"} {
		b, err := FromSource(string(src))
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.K = 1
		cfg.SliceWorkers = 1
		serial, err := b.RunSliced(engine, cfg)
		if err != nil {
			t.Fatalf("%s: RunSliced(1): %v", engine, err)
		}
		want := sliceFingerprint(serial)
		wantReport, err := b.SlicedErrorReport(serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			cfg.SliceWorkers = workers
			res, err := b.RunSliced(engine, cfg)
			if err != nil {
				t.Fatalf("%s: RunSliced(%d): %v", engine, workers, err)
			}
			if got := sliceFingerprint(res); got != want {
				t.Errorf("%s: fingerprint differs between 1 and %d workers:\n--- 1:\n%s--- %d:\n%s",
					engine, workers, want, workers, got)
			}
			report, err := b.SlicedErrorReport(res)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(report, wantReport) {
				t.Errorf("%s: report at %d workers = %v, want %v", engine, workers, report, wantReport)
			}
		}
	}
}

// TestErrorReportRequiresInstantiatedStates is the regression test for the
// old behaviour where a result without instantiated top-down states (here:
// a bu run whose bottom-up phase blew its step budget) silently produced
// an empty — i.e. "no misuse found" — report.
func TestErrorReportRequiresInstantiatedStates(t *testing.T) {
	b, err := FromSource(badProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.MaxBUSteps = 1
	res, err := b.Run("bu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed() || res.TD != nil {
		t.Fatalf("expected an aborted bu run without instantiated states, got err=%v TD=%v", res.Err, res.TD)
	}
	report, rerr := b.ErrorReport(res)
	if rerr == nil {
		t.Fatalf("ErrorReport on a stateless result returned %v, want an error", report)
	}
	if !errors.Is(rerr, core.ErrBudget) {
		t.Errorf("ErrorReport error should carry the run error, got: %v", rerr)
	}
	// A completed bu run, by contrast, reports through its instantiation
	// pass like every other engine.
	res, err = b.Run("bu", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	report, rerr = b.ErrorReport(res)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !reflect.DeepEqual(report, []string{"h1", "h2"}) {
		t.Errorf("completed bu report = %v, want [h1 h2]", report)
	}
}

// TestSlicedRejectsUnknownEngineAndSlice covers the dispatch-level error
// paths of the sliced runner.
func TestSlicedRejectsUnknownEngineAndSlice(t *testing.T) {
	b, err := FromSource(goodProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunSliced("nope", core.DefaultConfig()); err == nil {
		t.Error("RunSliced with an unknown engine should fail")
	}
	if _, _, err := b.TS.SliceClient("no-such-site"); err == nil {
		t.Error("SliceClient of an unknown site should fail")
	}
	if _, _, err := b.TS.SliceClient("w1"); err == nil {
		t.Error("SliceClient of an untracked site should fail")
	}
}
